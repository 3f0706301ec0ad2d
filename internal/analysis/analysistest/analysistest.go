// Package analysistest runs pslint analyzers over fixture packages and
// checks their diagnostics against `// want "regexp"` comments, in the
// style of golang.org/x/tools/go/analysis/analysistest. Fixtures live
// under <analyzer>/testdata/src/<pkg>/ so the go tool never builds them,
// yet they are parsed and fully type-checked here — including imports of
// the real packetshader/internal/sim package, which the shared Loader
// resolves from the enclosing module.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"packetshader/internal/analysis"
	"packetshader/internal/analysis/load"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	_, file, _, ok := runtime.Caller(1)
	if !ok {
		panic("analysistest: cannot locate caller")
	}
	return filepath.Join(filepath.Dir(file), "testdata")
}

// shared fixture-import loader: one per process, lazily grown. All
// fixture packages type-check against the same dependency universe.
var (
	loaderOnce sync.Once
	loaderErr  error
	loader     *load.Loader
	loaderMu   sync.Mutex
)

func sharedLoader() (*load.Loader, error) {
	loaderOnce.Do(func() {
		root, err := load.ModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		loader = load.NewLoader(root)
	})
	return loader, loaderErr
}

// Run applies analyzer a to each fixture package (a directory name under
// testdata/src) and reports mismatches between the diagnostics produced
// and the `// want` expectations in the fixture sources.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	loaderMu.Lock()
	defer loaderMu.Unlock()
	for _, pkg := range pkgs {
		runFixture(t, l, filepath.Join(testdata, "src", pkg), a)
	}
}

// runFixture type-checks the fixture package in dir, runs a over it and
// checks its // want expectations.
func runFixture(t *testing.T, l *load.Loader, dir string, a *analysis.Analyzer) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("analysistest: parse %s: %v", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("analysistest: no Go files in %s", dir)
	}

	// Load every import the fixture mentions before type-checking it.
	imports := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err == nil && p != "unsafe" {
				imports[p] = true
			}
		}
	}
	var paths []string
	for p := range imports {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	if len(paths) > 0 {
		if _, err := l.Load(paths...); err != nil {
			t.Fatalf("analysistest: loading fixture imports: %v", err)
		}
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: loaderImporter{l}}
	tpkg, err := conf.Check("fixture/"+filepath.Base(dir), l.Fset, files, info)
	if err != nil {
		t.Fatalf("analysistest: typecheck %s: %v", dir, err)
	}
	pass := analysis.NewPass(a, l.Fset, files, tpkg, info)
	if err := a.Run(pass); err != nil {
		t.Fatalf("analysistest: %s: %v", a.Name, err)
	}
	check(t, l.Fset, files, pass.Diagnostics)
}

// loaderImporter resolves a fixture's imports from the shared loader.
type loaderImporter struct{ l *load.Loader }

func (li loaderImporter) Import(path string) (*types.Package, error) {
	if p := li.l.Lookup(path); p != nil && p.Types != nil {
		return p.Types, nil
	}
	return nil, fmt.Errorf("fixture import %q not loaded", path)
}

// expectation is one `// want "re"` clause.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	met  bool
}

// wantRE matches one clause of a want comment: a double-quoted Go
// string or a raw backquoted regexp.
var wantRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// check compares diagnostics against // want comments. A want comment
// applies to the line it appears on.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text[len("want "):], -1) {
					lit := m[2] // backquoted form, used verbatim
					if m[1] != "" || m[2] == "" {
						var err error
						lit, err = strconv.Unquote(`"` + m[1] + `"`)
						if err != nil {
							t.Errorf("%s:%d: bad want clause %q: %v", pos.Filename, pos.Line, m[0], err)
							continue
						}
					}
					re, err := regexp.Compile(lit)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, lit, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, text: lit})
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.met && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.text)
		}
	}
}
