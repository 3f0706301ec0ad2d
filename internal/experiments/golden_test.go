package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// goldenShortIDs is the -short subset of TestGoldenOutputs: cheap enough
// for `go test -race -short`, and still racing real jobs on an 8-wide
// pool (fig2 and fig5 are multi-point sweeps, fig2 reads the shared
// IPv6 fixture) and partitioned worlds at -p 8 (fabric).
var goldenShortIDs = []string{"table1", "launch", "fig2", "table3", "fig5", "fabric"}

// golden is the package's one run of the experiments: every Registry id
// (goldenShortIDs under -short) in one Runner at -j 8, with partitioned
// worlds at -p 8 and metrics on. TestGoldenOutputs compares its bytes
// with the files; the paper checks (paper_test.go) read its Results.
var golden struct {
	once sync.Once
	out  []byte
	res  []*Result // in run order, up to the first failing id
	err  error
}

func goldenRun() {
	golden.once.Do(func() {
		ids := []string{"all"}
		if testing.Short() {
			ids = goldenShortIDs
		}
		var out bytes.Buffer
		r := NewRunner(8)
		r.Metrics, r.PartitionWorkers = &out, 8
		golden.res, golden.err = r.run(&out, ids...)
		golden.out = out.Bytes()
	})
}

// goldenResult returns id's Result from the golden run, skipping the
// calling check when -short leaves id out of the run.
func goldenResult(t *testing.T, id string) *Result {
	t.Helper()
	goldenRun()
	for _, r := range golden.res {
		if r.ID == id {
			return r
		}
	}
	if golden.err != nil {
		t.Fatalf("the golden run failed before %s: %v", id, golden.err)
	}
	t.Skipf("%s is outside the -short golden subset", id)
	return nil
}

// TestGoldenOutputs is the repository's byte-identity gate. Each
// testdata/golden/<id>.txt is `psbench -j 1 -metrics <id>`'s stdout; the
// golden run's output must equal the files concatenated in id order.
// One run therefore checks -j 8 = -j 1, -p 8 = -p 1, multi-id =
// concatenation, run-to-run identity, identity to the commit that wrote
// the files, and that no experiment changes a shared fixture another
// one reads. A change that moves a number on purpose rewrites the files
// with `make golden`, and their diff is the list of numbers it moved.
func TestGoldenOutputs(t *testing.T) {
	if !testing.Short() {
		checkGoldenFiles(t)
	}
	goldenRun()
	if golden.err != nil {
		t.Fatal(golden.err)
	}
	rest := golden.out
	for _, r := range golden.res {
		want, err := os.ReadFile(goldenFile(r.ID))
		if err != nil {
			t.Fatal(err)
		}
		seg := rest[:min(len(want), len(rest))]
		rest = rest[len(seg):]
		if !t.Run(r.ID, func(t *testing.T) { compareGolden(t, r.ID, seg, want) }) {
			t.Fatalf("ids after %s not compared: their output is no longer aligned with the files", r.ID)
		}
	}
	if len(rest) > 0 {
		t.Fatalf("%d bytes of output beyond the golden files", len(rest))
	}
}

func goldenFile(id string) string { return filepath.Join("testdata", "golden", id+".txt") }

// checkGoldenFiles fails the test when a Registry id has no golden file
// or a golden file names no id, so that no experiment can stay outside
// the gate.
func checkGoldenFiles(t *testing.T) {
	t.Helper()
	files, err := filepath.Glob(goldenFile("*"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range Registry {
		ids = append(ids, e.ID)
		if !slices.Contains(files, goldenFile(e.ID)) {
			t.Errorf("experiment %s has no %s; run make golden", e.ID, goldenFile(e.ID))
		}
	}
	for _, f := range files {
		if !slices.Contains(ids, strings.TrimSuffix(filepath.Base(f), ".txt")) {
			t.Errorf("%s names no Registry id; run make golden", f)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// compareGolden fails with the first line where id's output differs
// from its golden file.
func compareGolden(t *testing.T, id string, got, want []byte) {
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.SplitAfter(string(got), "\n"), strings.SplitAfter(string(want), "\n")
	for n := 0; ; n++ {
		if n == len(gl) || n == len(wl) || gl[n] != wl[n] {
			t.Fatalf("%s differs from %s at line %d (regenerate with make golden if intended):\n  got:  %q\n  want: %q",
				id, goldenFile(id), n+1, lineAt(gl, n), lineAt(wl, n))
		}
	}
}

func lineAt(lines []string, n int) string {
	if n < len(lines) {
		return lines[n]
	}
	return "(end of output)"
}
