// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework, built only on the standard
// library so the repository carries no external dependencies. It defines
// the Analyzer/Pass/Diagnostic vocabulary used by the pslint suite
// (cmd/pslint), which enforces the simulator's determinism contract:
// virtual time only, seeded RNG only, and order-stable iteration in any
// path that schedules simulation events or emits experiment output.
//
// The API deliberately mirrors x/tools so analyzers can be ported to the
// upstream framework verbatim if the dependency ever becomes available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //pslint:ignore directives. It must be a valid Go identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer checks
	// and why the invariant matters for the simulation.
	Doc string

	// InternalOnly restricts the analyzer to packages under internal/.
	// Wall-clock time and the global math/rand source are legitimate in
	// cmd/ front-ends (e.g. psbench prints host-time progress), but
	// never in the simulated stack.
	InternalOnly bool

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer with the parsed, type-checked syntax of a
// single package, and collects the diagnostics it reports.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report is called for each diagnostic. The default (set by
	// NewPass) appends to Diagnostics after applying //pslint:ignore
	// suppression.
	Report func(Diagnostic)

	// Diagnostics accumulates reported, non-suppressed diagnostics.
	Diagnostics []Diagnostic

	ignores map[string]map[int]bool // filename -> line -> ignored (per analyzer)
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// NewPass assembles a Pass for one package and indexes the package's
// //pslint:ignore directives for the given analyzer.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Pass {
	p := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		ignores:   make(map[string]map[int]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseIgnore(c.Text)
				if !ok || (name != a.Name && name != "all") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := p.ignores[pos.Filename]
				if m == nil {
					m = make(map[int]bool)
					p.ignores[pos.Filename] = m
				}
				// A directive suppresses findings on its own line and,
				// when it stands alone, on the line below it.
				m[pos.Line] = true
				m[pos.Line+1] = true
			}
		}
	}
	p.Report = func(d Diagnostic) {
		d.Analyzer = a.Name
		pos := fset.Position(d.Pos)
		if m := p.ignores[pos.Filename]; m != nil && m[pos.Line] {
			return
		}
		p.Diagnostics = append(p.Diagnostics, d)
	}
	return p
}

// parseIgnore recognises "//pslint:ignore <name> [reason]" directives.
func parseIgnore(text string) (analyzer string, ok bool) {
	const prefix = "//pslint:ignore"
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", false
	}
	return fields[0], true
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// The pslint loader only feeds analyzers non-test sources, but the check
// keeps analyzers correct if that ever changes (e.g. under analysistest).
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// SimPkgPath is the import path of the deterministic simulation engine
// whose contract the pslint suite enforces.
const SimPkgPath = "packetshader/internal/sim"

// IsSimFunc reports whether obj is a function or method declared in the
// sim package with one of the given names. An empty names list matches
// any sim function.
func IsSimFunc(obj types.Object, names ...string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != SimPkgPath {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// IsSimNamed reports whether t (after unwrapping pointers and generic
// instantiation) is the named sim type with the given name.
func IsSimNamed(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == SimPkgPath && obj.Name() == name
}

// Inspect walks every file in the pass in source order, calling fn for
// each node; if fn returns false the node's children are skipped.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
