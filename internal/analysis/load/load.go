// Package load type-checks Go packages for the pslint analyzers using
// only the standard library: `go list -deps -json` supplies the file
// sets in dependency-first order, and go/types checks each package with
// an importer backed by the packages already checked. Standard-library
// packages are checked signatures-only (IgnoreFuncBodies), so loading
// the full closure stays fast; module packages keep full bodies and a
// complete types.Info, so a package met first as a dependency needs no
// second check when a later Load names it.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// A Package is one loaded, type-checked package.
type Package struct {
	PkgPath  string
	Name     string
	Dir      string
	GoFiles  []string
	Standard bool // true for standard-library packages, checked signatures-only

	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// A Loader incrementally loads packages into a shared file set and
// type-checker universe. It is not safe for concurrent use.
type Loader struct {
	Fset *token.FileSet
	// Dir is the directory `go list` runs in; it must be inside the
	// module. Empty means the current directory.
	Dir string

	pkgs map[string]*Package
}

// NewLoader returns a Loader rooted at dir.
func NewLoader(dir string) *Loader {
	return &Loader{Fset: token.NewFileSet(), Dir: dir, pkgs: make(map[string]*Package)}
}

// Lookup returns the loaded package with the given import path, or nil.
func (l *Loader) Lookup(path string) *Package { return l.pkgs[path] }

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	Match      []string // the patterns that named the package; empty for a dependency
	Error      *struct{ Err string }
}

// Load resolves patterns with `go list -deps`, type-checks every newly
// listed package in dependency order, and returns the packages that
// matched the patterns themselves, in the order go list emits them.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.goList(patterns)
	if err != nil {
		return nil, err
	}
	var targets []*Package
	for _, lp := range listed {
		pkg, err := l.check(lp)
		if err != nil {
			return nil, err
		}
		if len(lp.Match) > 0 {
			targets = append(targets, pkg)
		}
	}
	return targets, nil
}

// goList shells out to `go list -deps -json`. Cgo is disabled so every
// listed file is pure Go and type-checkable from source.
func (l *Loader) goList(patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	dec := json.NewDecoder(out)
	var listed []*listedPackage
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			cmd.Wait()
			return nil, fmt.Errorf("go list -json decode: %v", err)
		}
		listed = append(listed, lp)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
	}
	return listed, nil
}

// check parses and type-checks one listed package, or returns the
// cached result of an earlier Load.
func (l *Loader) check(lp *listedPackage) (*Package, error) {
	if cached, ok := l.pkgs[lp.ImportPath]; ok {
		return cached, nil
	}
	if lp.ImportPath == "unsafe" {
		pkg := &Package{PkgPath: "unsafe", Name: "unsafe", Standard: true, Types: types.Unsafe}
		l.pkgs["unsafe"] = pkg
		return pkg, nil
	}

	var files []*ast.File
	var names []string
	for _, f := range lp.GoFiles {
		path := filepath.Join(lp.Dir, f)
		af, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", path, err)
		}
		files = append(files, af)
		names = append(names, path)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer:         importerFunc(l.importPkg),
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		IgnoreFuncBodies: lp.Standard,
	}
	tpkg, err := conf.Check(lp.ImportPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", lp.ImportPath, err)
	}
	pkg := &Package{
		PkgPath:  lp.ImportPath,
		Name:     lp.Name,
		Dir:      lp.Dir,
		GoFiles:  names,
		Standard: lp.Standard,
		Syntax:   files,
		Types:    tpkg,
		Info:     info,
	}
	l.pkgs[lp.ImportPath] = pkg
	return pkg, nil
}

// importPkg resolves an import path against the packages checked so
// far. The standard library vendors golang.org/x packages under
// "vendor/", so a miss retries with that prefix.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok && p.Types != nil {
		return p.Types, nil
	}
	if p, ok := l.pkgs["vendor/"+path]; ok && p.Types != nil {
		return p.Types, nil
	}
	return nil, fmt.Errorf("package %q not loaded (go list -deps order violated?)", path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ModuleRoot locates the enclosing module's root directory (where
// go.mod lives) starting from dir, so tests can run `go list` with a
// stable working directory regardless of the test binary's cwd.
func ModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}
