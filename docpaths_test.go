package packetshader_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocPathsResolve holds README.md and DESIGN.md to the tree: every
// back-quoted `internal/…` token is a file or directory of the module,
// or `internal/pkg.Name`, where Name is declared at the top level of
// that package's non-test Go.
func TestDocPathsResolve(t *testing.T) {
	quoted := regexp.MustCompile("`(internal/[^`]*)`")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		tokens := quoted.FindAllStringSubmatch(string(text), -1)
		if len(tokens) == 0 {
			t.Errorf("%s: no `internal/…` token found", doc)
		}
		for _, m := range tokens {
			tok := m[1]
			if _, err := os.Stat(tok); err == nil {
				continue
			}
			dir, base := filepath.Split(tok)
			pkg, name, ok := strings.Cut(base, ".")
			if !ok || !declares(t, dir+pkg, name) {
				t.Errorf("%s: `%s` names no file, directory or declaration", doc, tok)
			}
		}
	}
}

// declares reports whether the non-test Go files of the package in dir
// declare name at the top level.
func declares(t *testing.T, dir, name string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == name {
					return true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.Name == name {
							return true
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.Name == name {
								return true
							}
						}
					}
				}
			}
		}
	}
	return false
}
