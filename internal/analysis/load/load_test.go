package load

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSmokeLoadAll(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root)
	targets, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("targets: %d", len(targets))
	for _, p := range targets {
		if p.Info == nil || p.Types == nil {
			t.Errorf("%s missing types", p.PkgPath)
		}
	}
}

// TestLoadMultiplePatterns loads two separate patterns in one call and
// checks both resolve to full target packages.
func TestLoadMultiplePatterns(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root)
	targets, err := l.Load("./internal/sim", "./internal/obs")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]*Package{}
	for _, p := range targets {
		got[p.PkgPath] = p
		if p.Standard {
			t.Errorf("%s: module package marked Standard", p.PkgPath)
		}
		if len(p.Syntax) == 0 || p.Info == nil {
			t.Errorf("%s: missing syntax or type info", p.PkgPath)
		}
	}
	for _, want := range []string{"packetshader/internal/sim", "packetshader/internal/obs"} {
		if got[want] == nil {
			t.Errorf("pattern result missing %s (have %d targets)", want, len(targets))
		}
	}
}

// TestLoadCacheAndTargetPromotion loads a package first as a dependency,
// then directly, and checks the second Load returns the cached package:
// importers checked against it and the new target share one
// *types.Package.
func TestLoadCacheAndTargetPromotion(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root)
	if _, err := l.Load("./internal/core"); err != nil {
		t.Fatal(err)
	}
	dep := l.Lookup("packetshader/internal/sim")
	if dep == nil {
		t.Fatal("sim not loaded as a dependency of core")
	}
	targets, err := l.Load("./internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 1 {
		t.Fatalf("got %d targets, want 1", len(targets))
	}
	if targets[0] != dep {
		t.Error("second Load did not reuse the cached package")
	}
	if len(dep.Syntax) == 0 || dep.Info == nil {
		t.Error("module dependency loaded without syntax or type info")
	}
}

// TestTypeErrorPropagation builds a throwaway module whose single file
// fails type-checking and verifies Load surfaces the error instead of
// returning a half-checked package.
func TestTypeErrorPropagation(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module badmod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "bad.go"),
		"package badmod\n\nfunc f() int { return undefinedIdent }\n")

	l := NewLoader(dir)
	_, err := l.Load("./...")
	if err == nil {
		t.Fatal("Load succeeded on a module with a type error")
	}
	if !strings.Contains(err.Error(), "typecheck badmod") ||
		!strings.Contains(err.Error(), "undefinedIdent") {
		t.Errorf("error does not name the failing package and identifier: %v", err)
	}
	if p := l.Lookup("badmod"); p != nil {
		t.Error("failed package was cached")
	}
}

// TestParseErrorPropagation does the same for a file that does not even
// parse.
func TestParseErrorPropagation(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module badmod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "bad.go"), "package badmod\n\nfunc f( {\n")

	l := NewLoader(dir)
	if _, err := l.Load("./..."); err == nil {
		t.Fatal("Load succeeded on a module with a syntax error")
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
