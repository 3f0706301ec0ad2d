// Package schedblock flags blocking simulation calls inside Env.At /
// Env.After callbacks and Env.Task step functions.
//
// The sim package documents that callbacks passed to Env.At and
// Env.After "run in scheduler context and must not block"
// (internal/sim/env.go): the scheduler is single-threaded, and a
// callback that parks on Proc.Sleep, Queue.Get/Put, Server.Use or
// Signal.Wait deadlocks the whole simulation (those operations yield to
// a scheduler that is the caller itself). Nothing enforced this until
// now. Blocking work belongs in a process: have the callback wake a
// Proc (Signal.Fire, Queue.TryPut, Env.Go) instead.
//
// A task's step (Env.Task) runs in the same context: the event loop
// calls it inline at each wakeup. There the blocking calls panic at run
// time (sim/proc.go), on whichever path reaches them first; this
// analyzer finds them all before anything runs. A step arms its next
// wakeup with Proc.WakeAfter or Queue.Await and returns.
//
// The callback or step may be a function literal or a function or
// method of the package under analysis (env.Task("fwd", nd.forward));
// only its own body is checked, not what it calls. Function literals
// nested inside it are not walked: a literal handed to Env.Go runs as
// its own process, where blocking is the whole point.
package schedblock

import (
	"go/ast"
	"go/types"

	"packetshader/internal/analysis"
)

// blocking maps sim method names that park the calling goroutine.
// (Env.Run is included: re-entering the scheduler from a callback
// panics.) Try* variants are non-blocking and legal.
var blocking = map[string]bool{
	"Sleep":      true, // (*Proc)
	"SleepUntil": true, // (*Proc)
	"Get":        true, // (*Queue[T])
	"Put":        true, // (*Queue[T])
	"Use":        true, // (*Server)
	"Wait":       true, // (*Signal)
	"Run":        true, // (*Env): re-entry panics
}

var Analyzer = &analysis.Analyzer{
	Name: "schedblock",
	Doc:  "flag blocking sim operations (Proc.Sleep, Queue.Get/Put, Server.Use, Signal.Wait) inside Env.At/Env.After callbacks and Env.Task steps",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// Declarations by function object, to resolve a callback or step
	// given by name.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || pass.IsTestFile(call.Pos()) {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if !analysis.IsSimFunc(obj, "At", "After", "Task") || len(call.Args) == 0 {
			return true
		}
		why := "Env." + sel.Sel.Name + " callbacks run in scheduler context and must not block (sim/env.go); wake a process instead (Signal.Fire, Queue.TryPut, Env.Go)"
		if sel.Sel.Name == "Task" {
			why = "a task's step runs inline in the event loop and must not block (sim/proc.go); arm the next step instead (Proc.WakeAfter, Queue.Await)"
		}
		// Env.At(t, fn) / Env.After(d, fn) / Env.Task(name, step): the
		// function is the last arg.
		switch fn := ast.Unparen(call.Args[len(call.Args)-1]).(type) {
		case *ast.FuncLit:
			checkBody(pass, why, fn.Body)
		case *ast.Ident:
			checkNamed(pass, why, decls, fn)
		case *ast.SelectorExpr:
			checkNamed(pass, why, decls, fn.Sel)
		}
		return true
	})
	return nil
}

// checkNamed checks the body of the package-local function or method
// that id names, if it names one.
func checkNamed(pass *analysis.Pass, why string, decls map[*types.Func]*ast.FuncDecl, id *ast.Ident) {
	if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok {
		if fd := decls[fn]; fd != nil {
			checkBody(pass, why, fd.Body)
		}
	}
}

// checkBody reports blocking sim calls made directly by a callback or
// step body (nested function literals excluded — they run in some other
// context, typically as Env.Go processes).
func checkBody(pass *analysis.Pass, why string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if !analysis.IsSimFunc(obj) || !blocking[sel.Sel.Name] {
			return true
		}
		if !hasRecv(pass, sel) {
			return true
		}
		pass.Reportf(call.Pos(), "sim.%s blocks, but %s", sel.Sel.Name, why)
		return true
	})
}

func hasRecv(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.MethodVal
}
