// Package procshare is a static virtual-time race detector: it proves
// (or refutes, site by site) that the simulation is partitionable into
// concurrently-advancing processes, the machine-checked precondition
// for the conservative parallel-DES refactor (ROADMAP item 1).
//
// Go's runtime race detector cannot see these races: sim processes are
// cooperatively scheduled, exactly one runs at any instant, so every
// access is happens-before ordered at runtime even when two procs
// mutate the same state. The moment procs advance concurrently up to a
// lookahead horizon, that ordering evaporates — which is why the shared
// state must be found statically, before the refactor, the way the
// sharedfixture analyzer fenced PR 5's replication boundaries.
//
// The analyzer treats every Env.Go process body, every Env.Task step
// function and every Env.At / Env.After scheduler callback as a
// concurrency root (a task is a process without a goroutine: the world
// scheduler advances it concurrently with other partitions all the
// same). From each root it collects, via the
// internal/analysis/callgraph index and per-function summaries, the
// mutable state the root can reach:
//
//   - package-level variables (any package, followed across package
//     boundaries via analysis facts),
//   - closure-captured variables of function-literal roots, and
//   - struct fields, identified by their field object — conservative:
//     two roots touching the same field of *different* instances are
//     still paired, because instance disjointness is exactly what the
//     partitioning refactor has to prove.
//
// A diagnostic is reported when one root writes a piece of state that a
// second co-spawnable root reads or writes — "co-spawnable" meaning
// some function (followed transitively, across packages via facts)
// spawns both, so they can coexist inside one Env. A root spawned
// inside a loop runs as multiple instances and is additionally paired
// with itself, excluding accesses made through loop-local captured
// variables (those are per-instance by construction).
//
// Exemptions, in the spirit of the determinism contract:
//
//   - accesses mediated by the sim package itself — Queue, Server and
//     Signal operations are the sanctioned lookahead boundaries, and
//     the engine's own bookkeeping (Sleep, Now) is the scheduler;
//   - state built under (*sync.Once).Do and only read afterwards
//     (read-only after construction);
//   - state that no root writes (reads alone cannot race);
//   - fields of a queue element type: a type the package instantiates
//     as a sim.Queue element (sim.NewQueue[T] or sim.NewQueue[*T]).
//     Such values are hand-off objects: ownership transfers between
//     procs through Put/Get, which are scheduler-visible lookahead
//     boundaries, so accesses before a Put and after the matching Get
//     are ordered by the queue operation itself. (Holding an alias
//     across a Put would defeat this — that gap is backstopped by the
//     -race jobs, like the other known gaps below.)
//
// Remaining findings are either fixed, suppressed line-wise with
// `//pslint:ignore procshare <reason>`, or enumerated with a written
// rationale in pslint-baseline.json so the shared-state inventory is
// burned down rather than silently ignored.
//
// Known gaps, backstopped by the -race CI jobs and the byte-identity
// regressions: calls through interfaces and function-typed values are
// not followed, taking the address of state is treated as a read, and
// code run by the experiment main goroutine between Env.Run segments is
// not a root.
package procshare

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"packetshader/internal/analysis"
	"packetshader/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name:      "procshare",
	Doc:       "flag unmediated state shared between sim proc/callback roots (the partitionability precondition for parallel DES)",
	UsesFacts: true,
	Run:       run,
}

// An Access is one kind of touch on one piece of state, the unit both
// fact types carry across package boundaries.
type Access struct {
	State string // "var <pkg>.<name>" | "field (<pkg>.<Type>).<name>" | "capture <name> (<file>:<line>)"
	Write bool
	// ViaRecv marks an access that reaches the state only through the
	// function's own receiver, so a caller binding a per-instance
	// receiver gets a per-instance access (FuncFact only; meaningless
	// in RootSummary, whose accesses are already resolved).
	ViaRecv bool
}

// FuncFact summarizes one function for callers in dependent packages:
// every piece of mutable state it can touch transitively and every proc
// root it can spawn transitively. Exported for each function
// declaration; imported at cross-package call sites.
type FuncFact struct {
	Accesses []Access
	Spawns   []string // root IDs
}

// AFact marks FuncFact as an analysis fact.
func (*FuncFact) AFact() {}

// RootSummary describes one concurrency root for dependent packages.
type RootSummary struct {
	ID       string // "<pkgpath>/<file>:<line>", unique module-wide
	Label    string // human-readable: `proc "worker" (internal/core/core.go:324)`
	Plural   bool   // spawn site sits inside a loop: many instances
	Spawns   []string
	Accesses []Access
}

// RootsFact is the package fact listing the package's roots, so
// dependent packages can pair their own roots against them.
type RootsFact struct {
	Roots []RootSummary
}

// AFact marks RootsFact as an analysis fact.
func (*RootsFact) AFact() {}

// accessKey identifies one (state, kind) pair within a package's
// analysis; accessRec carries its best local position.
type accessKey struct {
	state string
	write bool
}

type accessRec struct {
	pos token.Pos
	// perInstance marks accesses made through a loop-local variable
	// captured by a plural root literal: each instance has its own, so
	// the root is not paired with itself over them.
	perInstance bool
	// viaRecv marks a field access whose base is the enclosing method's
	// receiver (m.field, depth one). When a root literal calls a method
	// on a per-instance captured receiver, the callee's viaRecv
	// accesses are per-instance too — that is how `w := w; env.Go(...,
	// func(p){ w.run(p) })` keeps the worker's own fields out of the
	// worker×worker self-pair while fields of genuinely shared objects
	// (reached through deeper chains) stay in.
	viaRecv bool
}

// callEdge is one same-package static call site.
type callEdge struct {
	fn  *types.Func
	pos token.Pos
	// recv is the base variable of the receiver expression for a
	// method call (w.run() → w's object), nil otherwise.
	recv *types.Var
}

// bodyInfo is the direct (non-transitive) result of walking one body.
type bodyInfo struct {
	access map[accessKey]accessRec
	calls  []callEdge
	spawns map[string]token.Pos // root IDs spawned directly (or via imported facts)
}

// funcInfo augments a declared function's bodyInfo with its transitive
// summary after propagation.
type funcInfo struct {
	direct  *bodyInfo
	recv    *types.Var // method receiver, nil for plain functions
	summary map[accessKey]accessRec
	spawns  map[string]token.Pos
}

// rootRec is one concurrency root declared in the package under
// analysis.
type rootRec struct {
	id     string
	label  string
	plural bool
	pos    token.Pos
	access map[accessKey]accessRec
	spawns map[string]token.Pos
}

type analyzer struct {
	pass  *analysis.Pass
	graph *callgraph.Graph
	cgpkg *callgraph.Package
	funcs map[*types.Func]*funcInfo
	roots []*rootRec
	// queueElems holds owner names ("<pkgpath>.<Type>") of types this
	// package instantiates as sim.Queue elements; their fields are
	// queue-mediated hand-off state (see the package doc).
	queueElems map[string]bool
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == analysis.SimPkgPath {
		// The engine is the mediator: its queues, servers and signals
		// are the sanctioned cross-proc channels, and its scheduler
		// bookkeeping is by definition shared. Nothing to summarize,
		// nothing to report.
		return nil
	}
	cgpkg := &callgraph.Package{Types: pass.Pkg, Info: pass.TypesInfo, Files: pass.Files}
	a := &analyzer{
		pass:       pass,
		graph:      callgraph.New(cgpkg),
		cgpkg:      cgpkg,
		funcs:      map[*types.Func]*funcInfo{},
		queueElems: map[string]bool{},
	}

	// Phase 0: collect queue element types. Instantiating sim.NewQueue[T]
	// declares T a hand-off type whose ownership moves between procs
	// through the queue, a sanctioned lookahead boundary; T's fields are
	// then exempt from sharing reports in this package (and from its
	// exported facts).
	a.scanQueueElems()

	// Phase 1: direct per-function info for every declaration.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{}
			if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
				fi.recv, _ = pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
			}
			fi.direct = a.walkBody(fd.Body, nil, nil, fi.recv)
			a.funcs[fn] = fi
		}
	}

	// Phase 2: propagate along same-package call edges to a fixpoint,
	// giving each function its transitive access/spawn summary.
	a.propagate()

	// Phase 3: find the package's roots and collect their accesses.
	a.scanRoots()

	// Phase 4: export facts for dependent packages.
	a.exportFacts()

	// Phase 5: pair co-spawnable roots and report shared state.
	a.report()
	return nil
}

// ---- body walking ----

// walkBody inspects one body, recording direct state accesses, static
// same-package call edges, spawn sites, and — at cross-package calls —
// the callee's imported fact. rootLit non-nil marks a root function
// literal, enabling captured-variable tracking; loop is the innermost
// loop statement enclosing the root's spawn site, delimiting the
// per-instance capture scope; recv is the enclosing method's receiver
// variable for viaRecv classification (nil otherwise).
func (a *analyzer) walkBody(body ast.Node, rootLit *ast.FuncLit, loop ast.Node, recv *types.Var) *bodyInfo {
	bi := &bodyInfo{
		access: map[accessKey]accessRec{},
		spawns: map[string]token.Pos{},
	}
	skip := map[ast.Node]bool{}
	info := a.pass.TypesInfo

	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			callee := callgraph.StaticCallee(info, node)
			if callee == nil {
				return true // interface / func-value call: not followed
			}
			if isSpawn(callee) {
				// A nested spawn is its own root; its body is analyzed
				// from the root scan, not attributed to this one.
				bi.spawns[a.siteID(node.Pos())] = node.Pos()
				return false
			}
			if callee.Pkg() != nil && callee.Pkg().Path() == analysis.SimPkgPath {
				// Mediation: Queue/Server/Signal operations are the
				// sanctioned cross-proc channels, and the engine's own
				// bookkeeping is the scheduler. Arguments still count.
				return true
			}
			if callee.FullName() == "(*sync.Once).Do" {
				// Read-only-after-construction: the build runs exactly
				// once, before any concurrent reader.
				return false
			}
			if callee.Pkg() != nil && callee.Pkg() != a.pass.Pkg {
				var ff FuncFact
				if a.pass.ImportObjectFact(callee, &ff) {
					for _, acc := range ff.Accesses {
						mergeAccess(bi.access, accessKey{acc.State, acc.Write}, accessRec{pos: node.Pos()})
					}
					for _, id := range ff.Spawns {
						if _, ok := bi.spawns[id]; !ok {
							bi.spawns[id] = node.Pos()
						}
					}
				}
				return true
			}
			if callee.Pkg() == a.pass.Pkg {
				edge := callEdge{fn: callee, pos: node.Pos()}
				if sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr); ok {
					if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
						if v, ok := info.Uses[base].(*types.Var); ok && !v.IsField() {
							edge.recv = v
						}
					}
				}
				bi.calls = append(bi.calls, edge)
			}
		case *ast.AssignStmt:
			if node.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range node.Lhs {
				a.recordWrite(bi, skip, lhs, rootLit, loop, recv)
			}
		case *ast.IncDecStmt:
			a.recordWrite(bi, skip, node.X, rootLit, loop, recv)
		case *ast.SelectorExpr:
			if skip[node] {
				return true // already recorded as the write target
			}
			if sel := info.Selections[node]; sel != nil && sel.Kind() == types.FieldVal {
				a.recordField(bi, node, false, rootLit, loop, recv)
			}
		case *ast.Ident:
			if !skip[node] {
				a.recordIdent(bi, node, false, rootLit, loop)
			}
		}
		return true
	})
	return bi
}

// recordWrite peels an assignment target to the object actually
// mutated: indexing writes into the indexed variable, field chains
// write the final selected field, `*p = x` is statically unresolvable
// and skipped.
func (a *analyzer) recordWrite(bi *bodyInfo, skip map[ast.Node]bool, e ast.Expr, rootLit *ast.FuncLit, loop ast.Node, recv *types.Var) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := a.pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
					skip[x.Sel] = true
					a.recordIdent(bi, x.Sel, true, rootLit, loop)
					return
				}
			}
			if sel := a.pass.TypesInfo.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				skip[x] = true
				a.recordField(bi, x, true, rootLit, loop, recv)
			}
			return
		case *ast.Ident:
			skip[x] = true
			a.recordIdent(bi, x, true, rootLit, loop)
			return
		default:
			return
		}
	}
}

// recordIdent classifies one identifier access: a package-level
// variable of any package, or — inside a root literal — a captured
// variable of an enclosing function.
func (a *analyzer) recordIdent(bi *bodyInfo, id *ast.Ident, write bool, rootLit *ast.FuncLit, loop ast.Node) {
	vr, ok := a.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || vr.IsField() {
		return
	}
	if vr.Pkg() != nil && vr.Parent() == vr.Pkg().Scope() {
		key := accessKey{"var " + vr.Pkg().Path() + "." + vr.Name(), write}
		mergeAccess(bi.access, key, accessRec{pos: id.Pos()})
		return
	}
	if rootLit == nil || !within(id.Pos(), rootLit) || within(vr.Pos(), rootLit) {
		return // plain local, or not in capture position
	}
	// Captured from an enclosing function. Loop-local captures are
	// per-instance for a loop-spawned root.
	p := a.pass.Fset.Position(vr.Pos())
	key := accessKey{fmt.Sprintf("capture %s (%s:%d)", vr.Name(), filepath.Base(p.Filename), p.Line), write}
	mergeAccess(bi.access, key, accessRec{
		pos:         id.Pos(),
		perInstance: loop != nil && within(vr.Pos(), loop),
	})
}

// recordField records an access to a struct field object. The state
// key is the field's identity ((owner type, field name)), deliberately
// instance-blind: proving instances disjoint is the partitioning
// refactor's job, not this analyzer's.
func (a *analyzer) recordField(bi *bodyInfo, sel *ast.SelectorExpr, write bool, rootLit *ast.FuncLit, loop ast.Node, recv *types.Var) {
	selection := a.pass.TypesInfo.Selections[sel]
	field, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	owner := ownerName(selection.Recv())
	key := accessKey{fmt.Sprintf("field (%s).%s", owner, field.Name()), write}
	rec := accessRec{pos: sel.Sel.Pos()}
	if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		vr, isVar := a.pass.TypesInfo.Uses[base].(*types.Var)
		// m.field inside a method: via the receiver, so a per-instance
		// receiver at a call site makes the access per-instance.
		rec.viaRecv = isVar && recv != nil && vr == recv
		// A depth-1 access through a per-instance captured base touches
		// that instance's own field slot.
		if isVar && !vr.IsField() && rootLit != nil && within(base.Pos(), rootLit) &&
			!(vr.Pkg() != nil && vr.Parent() == vr.Pkg().Scope()) &&
			loop != nil && within(vr.Pos(), loop) {
			rec.perInstance = true
		}
	}
	mergeAccess(bi.access, key, rec)
}

// ownerName renders the receiver type of a field selection as
// "<pkgpath>.<TypeName>".
func ownerName(t types.Type) string {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
			continue
		case *types.Named:
			obj := x.Obj()
			if obj.Pkg() != nil {
				return obj.Pkg().Path() + "." + obj.Name()
			}
			return obj.Name()
		default:
			return t.String()
		}
	}
}

// mergeAccess keeps the first position seen for a key and intersects
// the exemption flags: an access is per-instance (or via-receiver) only
// if every path to it is — one shared path makes the state shared.
func mergeAccess(m map[accessKey]accessRec, k accessKey, r accessRec) {
	prev, ok := m[k]
	if !ok {
		m[k] = r
		return
	}
	merged := accessRec{
		pos:         prev.pos,
		perInstance: prev.perInstance && r.perInstance,
		viaRecv:     prev.viaRecv && r.viaRecv,
	}
	if merged != prev {
		m[k] = merged
	}
}

func within(pos token.Pos, node ast.Node) bool {
	return node != nil && pos >= node.Pos() && pos <= node.End()
}

// isSpawn reports whether fn is Env.Go, Env.Task, Env.At or Env.After.
func isSpawn(fn *types.Func) bool {
	return analysis.IsSimFunc(fn, "Go", "Task", "At", "After")
}

// scanQueueElems records the element types of every sim.NewQueue
// instantiation in the package, keyed like field owners
// ("<pkgpath>.<Type>", pointers peeled).
func (a *analyzer) scanQueueElems() {
	for _, f := range a.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := callgraph.StaticCallee(a.pass.TypesInfo, call)
			if callee == nil || !analysis.IsSimFunc(callee, "NewQueue") {
				return true
			}
			t := a.pass.TypesInfo.TypeOf(call) // *sim.Queue[T]
			ptr, ok := t.(*types.Pointer)
			if !ok {
				return true
			}
			named, ok := ptr.Elem().(*types.Named)
			if !ok || named.TypeArgs().Len() != 1 {
				return true
			}
			a.queueElems[ownerName(named.TypeArgs().At(0))] = true
			return true
		})
	}
}

// queueMediated reports whether state is a field of a queue element
// type recorded by scanQueueElems.
func (a *analyzer) queueMediated(state string) bool {
	if len(a.queueElems) == 0 || !strings.HasPrefix(state, "field (") {
		return false
	}
	rest := strings.TrimPrefix(state, "field (")
	i := strings.LastIndex(rest, ").")
	if i < 0 {
		return false
	}
	return a.queueElems[rest[:i]]
}

// siteID is the module-wide identity of a spawn site.
func (a *analyzer) siteID(pos token.Pos) string {
	p := a.pass.Fset.Position(pos)
	return fmt.Sprintf("%s/%s:%d", a.pass.Pkg.Path(), filepath.Base(p.Filename), p.Line)
}

// ---- propagation ----

// propagate folds callee summaries into callers until a fixpoint:
// afterwards funcInfo.summary/spawns are transitive over same-package
// edges (cross-package edges were flattened at walk time via facts).
// Inherited accesses carry the local call-site position so diagnostics
// always point into the package under analysis.
func (a *analyzer) propagate() {
	for _, fi := range a.funcs {
		fi.summary = map[accessKey]accessRec{}
		for k, r := range fi.direct.access {
			fi.summary[k] = r
		}
		fi.spawns = map[string]token.Pos{}
		for id, pos := range fi.direct.spawns {
			fi.spawns[id] = pos
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range a.funcs {
			for _, e := range fi.direct.calls {
				cfi := a.funcs[e.fn]
				if cfi == nil {
					continue
				}
				// A callee access stays via-receiver only when the call
				// itself goes through this method's own receiver
				// (m.helper() inside (*T).run keeps m.field accesses
				// attached to the receiver chain).
				viaOurRecv := fi.recv != nil && e.recv == fi.recv
				for k, cr := range cfi.summary {
					nr := accessRec{pos: e.pos, viaRecv: viaOurRecv && cr.viaRecv}
					prev, ok := fi.summary[k]
					if !ok {
						fi.summary[k] = nr
						changed = true
						continue
					}
					merged := accessRec{
						pos:         prev.pos,
						perInstance: prev.perInstance && nr.perInstance,
						viaRecv:     prev.viaRecv && nr.viaRecv,
					}
					if merged != prev {
						fi.summary[k] = merged
						changed = true
					}
				}
				for id := range cfi.spawns {
					if _, ok := fi.spawns[id]; !ok {
						fi.spawns[id] = e.pos
						changed = true
					}
				}
			}
		}
	}
}

// ---- root discovery ----

// scanRoots finds every Env.Go / Env.Task / Env.At / Env.After call
// site in the package and assembles each root's transitive accesses.
func (a *analyzer) scanRoots() {
	for _, f := range a.pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok || a.pass.IsTestFile(call.Pos()) {
				return true
			}
			callee := callgraph.StaticCallee(a.pass.TypesInfo, call)
			if callee == nil || !isSpawn(callee) || len(call.Args) == 0 {
				return true
			}
			a.addRoot(call, callee, innermostLoop(stack))
			return true
		})
	}
	sort.Slice(a.roots, func(i, j int) bool { return a.roots[i].id < a.roots[j].id })
}

// innermostLoop returns the nearest enclosing for/range statement that
// is still inside the spawning function (a loop in an outer function
// does not multiply this function's instances statically).
func innermostLoop(stack []ast.Node) ast.Node {
	for i := len(stack) - 2; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return n
		case *ast.FuncLit, *ast.FuncDecl:
			return nil
		}
	}
	return nil
}

func (a *analyzer) addRoot(call *ast.CallExpr, callee *types.Func, loop ast.Node) {
	kind, name := "callback", callee.Name()
	if k, ok := map[string]string{"Go": "proc", "Task": "task"}[callee.Name()]; ok {
		kind, name = k, "?"
		if len(call.Args) >= 2 {
			if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					name = s
				}
			}
		}
	}
	id := a.siteID(call.Pos())
	r := &rootRec{
		id:     id,
		label:  fmt.Sprintf("%s %q (%s)", kind, name, trimModule(id)),
		plural: loop != nil,
		pos:    call.Pos(),
		access: map[accessKey]accessRec{},
		spawns: map[string]token.Pos{},
	}

	fnArg := ast.Unparen(call.Args[len(call.Args)-1])
	switch arg := fnArg.(type) {
	case *ast.FuncLit:
		bi := a.walkBody(arg.Body, arg, loop, nil)
		for k, rec := range bi.access {
			mergeAccess(r.access, k, rec)
		}
		for id, pos := range bi.spawns {
			r.spawns[id] = pos
		}
		for _, e := range bi.calls {
			a.inherit(r, e, arg, loop)
		}
	case *ast.Ident:
		if fn, ok := a.pass.TypesInfo.Uses[arg].(*types.Func); ok {
			a.inheritRootFunc(r, fn, call.Pos(), nil, nil)
		}
	case *ast.SelectorExpr:
		// Method value (env.After(d, r.ResetMeasurement)): the bound
		// receiver expression was evaluated in the spawning function;
		// the body is the method's, and a per-instance (loop-local)
		// receiver keeps its own fields out of self-pairs.
		if fn, ok := a.pass.TypesInfo.Uses[arg.Sel].(*types.Func); ok {
			var recv *types.Var
			if base, ok := ast.Unparen(arg.X).(*ast.Ident); ok {
				if v, ok := a.pass.TypesInfo.Uses[base].(*types.Var); ok && !v.IsField() {
					recv = v
				}
			}
			a.inheritRootFunc(r, fn, call.Pos(), recv, loop)
		}
	}
	a.roots = append(a.roots, r)
}

// perInstanceRecv reports whether recv is a loop-iteration-local
// variable as seen from a spawn site inside loop (each spawned instance
// binds its own copy), excluding variables declared inside the root
// literal itself.
func perInstanceRecv(recv *types.Var, rootLit *ast.FuncLit, loop ast.Node) bool {
	return recv != nil && loop != nil && within(recv.Pos(), loop) &&
		(rootLit == nil || !within(recv.Pos(), rootLit))
}

// inherit merges a same-package callee's transitive summary into a
// root, positioned at the call site. Via-receiver accesses of a method
// called on a per-instance captured receiver are per-instance.
func (a *analyzer) inherit(r *rootRec, e callEdge, rootLit *ast.FuncLit, loop ast.Node) {
	fi := a.funcs[e.fn]
	if fi == nil {
		return
	}
	perInst := perInstanceRecv(e.recv, rootLit, loop)
	for k, cr := range fi.summary {
		mergeAccess(r.access, k, accessRec{pos: e.pos, perInstance: perInst && cr.viaRecv})
	}
	for id := range fi.spawns {
		if _, ok := r.spawns[id]; !ok {
			r.spawns[id] = e.pos
		}
	}
}

// inheritRootFunc resolves a named-function or method-value root body:
// same-package summaries directly, cross-package ones via facts.
func (a *analyzer) inheritRootFunc(r *rootRec, fn *types.Func, pos token.Pos, recv *types.Var, loop ast.Node) {
	if fn.Pkg() == a.pass.Pkg {
		a.inherit(r, callEdge{fn: fn, pos: pos, recv: recv}, nil, loop)
		return
	}
	perInst := perInstanceRecv(recv, nil, loop)
	var ff FuncFact
	if a.pass.ImportObjectFact(fn, &ff) {
		for _, acc := range ff.Accesses {
			mergeAccess(r.access, accessKey{acc.State, acc.Write},
				accessRec{pos: pos, perInstance: perInst && acc.ViaRecv})
		}
		for _, id := range ff.Spawns {
			if _, ok := r.spawns[id]; !ok {
				r.spawns[id] = pos
			}
		}
	}
}

// ---- fact export ----

func (a *analyzer) exportFacts() {
	for fn, fi := range a.funcs {
		ff := &FuncFact{}
		for k, rec := range fi.summary {
			if strings.HasPrefix(k.state, "capture ") {
				continue // meaningless outside the declaring package
			}
			if a.queueMediated(k.state) {
				continue // hand-off state: mediated by the queue
			}
			ff.Accesses = append(ff.Accesses, Access{State: k.state, Write: k.write, ViaRecv: rec.viaRecv})
		}
		for id := range fi.spawns {
			ff.Spawns = append(ff.Spawns, id)
		}
		sortFact(ff)
		a.pass.ExportObjectFact(fn, ff)
	}
	if len(a.roots) == 0 {
		return
	}
	rf := &RootsFact{}
	for _, r := range a.roots {
		rs := RootSummary{ID: r.id, Label: r.label, Plural: r.plural}
		for k := range r.access {
			if strings.HasPrefix(k.state, "capture ") {
				continue
			}
			if a.queueMediated(k.state) {
				continue
			}
			rs.Accesses = append(rs.Accesses, Access{State: k.state, Write: k.write})
		}
		for id := range r.spawns {
			rs.Spawns = append(rs.Spawns, id)
		}
		sort.Slice(rs.Accesses, func(i, j int) bool {
			x, y := rs.Accesses[i], rs.Accesses[j]
			if x.State != y.State {
				return x.State < y.State
			}
			return !x.Write && y.Write
		})
		sort.Strings(rs.Spawns)
		rf.Roots = append(rf.Roots, rs)
	}
	a.pass.ExportPackageFact(rf)
}

func sortFact(ff *FuncFact) {
	sort.Slice(ff.Accesses, func(i, j int) bool {
		x, y := ff.Accesses[i], ff.Accesses[j]
		if x.State != y.State {
			return x.State < y.State
		}
		return !x.Write && y.Write
	})
	sort.Strings(ff.Spawns)
}

// ---- pairing and reporting ----

// knownRoot is the pairing-time view of a root, local or imported.
type knownRoot struct {
	id, label string
	plural    bool
	local     *rootRec // nil for roots imported from dependency packages
	spawns    []string
	reads     map[string]bool
	writes    map[string]bool
	// selfReads/selfWrites exclude per-instance accesses (self-pairing
	// only; always equal to reads/writes for imported roots, which are
	// never self-paired here — their own package already did).
	selfReads, selfWrites map[string]bool
}

func (a *analyzer) report() {
	known := map[string]*knownRoot{}
	for _, r := range a.roots {
		kr := &knownRoot{
			id: r.id, label: r.label, plural: r.plural, local: r,
			reads: map[string]bool{}, writes: map[string]bool{},
			selfReads: map[string]bool{}, selfWrites: map[string]bool{},
		}
		for id := range r.spawns {
			kr.spawns = append(kr.spawns, id)
		}
		sort.Strings(kr.spawns)
		for k, rec := range r.access {
			set(kr.reads, kr.writes, k)
			if !rec.perInstance {
				set(kr.selfReads, kr.selfWrites, k)
			}
		}
		known[r.id] = kr
	}
	for _, pf := range a.pass.AllPackageFacts() {
		rf, ok := pf.Fact.(*RootsFact)
		if !ok || pf.Pkg == a.pass.Pkg {
			continue // own roots are already present with local detail
		}
		for _, rs := range rf.Roots {
			kr := &knownRoot{
				id: rs.ID, label: rs.Label, plural: rs.Plural, spawns: rs.Spawns,
				reads: map[string]bool{}, writes: map[string]bool{},
			}
			for _, acc := range rs.Accesses {
				set(kr.reads, kr.writes, accessKey{acc.State, acc.Write})
			}
			kr.selfReads, kr.selfWrites = kr.reads, kr.writes
			known[rs.ID] = kr
		}
	}

	// Co-spawn groups: the spawn closure of every declared function and
	// of every local root. Two roots in one group can coexist in one
	// Env.
	type group struct {
		ids []string
		pos token.Pos
	}
	var groups []group
	for fn, fi := range a.funcs {
		if len(fi.spawns) == 0 {
			continue
		}
		seed := make([]string, 0, len(fi.spawns))
		for id := range fi.spawns {
			seed = append(seed, id)
		}
		groups = append(groups, group{ids: a.closure(seed, known), pos: fn.Pos()})
	}
	for _, r := range a.roots {
		seed := []string{r.id}
		for id := range r.spawns {
			seed = append(seed, id)
		}
		groups = append(groups, group{ids: a.closure(seed, known), pos: r.pos})
	}

	type pairKey struct{ a, b string }
	pairs := map[pairKey]token.Pos{}
	for _, g := range groups {
		for i := 0; i < len(g.ids); i++ {
			for j := i; j < len(g.ids); j++ {
				x, y := g.ids[i], g.ids[j]
				if x > y {
					x, y = y, x
				}
				pk := pairKey{x, y}
				if _, ok := pairs[pk]; !ok {
					pairs[pk] = g.pos
				}
			}
		}
	}

	var keys []pairKey
	for pk := range pairs {
		keys = append(keys, pk)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})

	reported := map[string]bool{}
	for _, pk := range keys {
		ra, rb := known[pk.a], known[pk.b]
		if ra == nil || rb == nil {
			continue
		}
		if ra.local == nil && rb.local == nil {
			// Both roots live in other packages: the package whose
			// spawner co-spawns them reports the pair with real
			// positions (core reports master×injector-callback, not
			// every main package that calls Router.Start).
			continue
		}
		if pk.a == pk.b {
			a.reportSelf(ra, reported)
			continue
		}
		a.reportPair(ra, rb, pairs[pk], reported)
	}
}

func set(reads, writes map[string]bool, k accessKey) {
	if k.write {
		writes[k.state] = true
	} else {
		reads[k.state] = true
	}
}

// closure expands a set of root IDs over the roots-spawn-roots
// relation.
func (a *analyzer) closure(seed []string, known map[string]*knownRoot) []string {
	in := map[string]bool{}
	work := append([]string(nil), seed...)
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		if in[id] {
			continue
		}
		in[id] = true
		if kr := known[id]; kr != nil {
			work = append(work, kr.spawns...)
		}
	}
	out := make([]string, 0, len(in))
	for id := range in {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

const adviceSuffix = "; unmediated cross-proc shared state blocks partitioning (mediate via sim.Queue/sim.Server, make it read-only after construction, or waive it with a reason in pslint-baseline.json)"

// reportSelf flags state a loop-spawned root's instances share with
// each other.
func (a *analyzer) reportSelf(r *knownRoot, reported map[string]bool) {
	if r.local == nil || !r.plural {
		return
	}
	var states []string
	for s := range r.selfWrites {
		if a.queueMediated(s) {
			continue
		}
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		key := r.id + "|" + r.id + "|" + s
		if reported[key] {
			continue
		}
		reported[key] = true
		pos := a.accessPos(r, s, r.local.pos)
		a.pass.Reportf(pos, "%s runs as multiple instances that all write %s%s",
			r.label, display(s), adviceSuffix)
	}
}

// reportPair flags state written by one root and touched by the other.
func (a *analyzer) reportPair(ra, rb *knownRoot, origin token.Pos, reported map[string]bool) {
	states := map[string]bool{}
	for s := range ra.writes {
		if rb.writes[s] || rb.reads[s] {
			states[s] = true
		}
	}
	for s := range rb.writes {
		if ra.writes[s] || ra.reads[s] {
			states[s] = true
		}
	}
	for s := range states {
		if a.queueMediated(s) {
			delete(states, s)
		}
	}
	var sorted []string
	for s := range states {
		sorted = append(sorted, s)
	}
	sort.Strings(sorted)
	for _, s := range sorted {
		key := ra.id + "|" + rb.id + "|" + s
		if reported[key] {
			continue
		}
		reported[key] = true
		w, o := ra, rb
		if !w.writes[s] {
			w, o = rb, ra
		}
		verb := "read"
		if o.writes[s] {
			verb = "written"
		}
		// Anchor the diagnostic in this package: at the writer's access
		// when local, else at the other root's.
		pos := origin
		if w.local != nil {
			pos = a.accessPos(w, s, origin)
		} else if o.local != nil {
			pos = a.accessPos(o, s, origin)
		}
		a.pass.Reportf(pos, "%s is written by %s and %s by %s%s",
			display(s), w.label, verb, o.label, adviceSuffix)
	}
}

// accessPos finds a local position for one of r's accesses to state s,
// preferring the write.
func (a *analyzer) accessPos(r *knownRoot, s string, fallback token.Pos) token.Pos {
	if r.local == nil {
		return fallback
	}
	if rec, ok := r.local.access[accessKey{s, true}]; ok {
		return rec.pos
	}
	if rec, ok := r.local.access[accessKey{s, false}]; ok {
		return rec.pos
	}
	return fallback
}

// display trims the module prefix from a state key for readability.
func display(s string) string {
	return strings.ReplaceAll(s, "packetshader/internal/", "")
}

// trimModule shortens a root ID for display.
func trimModule(id string) string {
	return strings.TrimPrefix(id, "packetshader/")
}
