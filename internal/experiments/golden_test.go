package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutputs runs every experiment that has a file under
// testdata/golden (named <id>.txt) and requires its output to equal the
// file byte for byte — `psbench -j 1 <id>`'s stdout. A change that moves
// a number on purpose regenerates the files with `make golden`, and the
// diff of the files is the list of numbers it moved.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments")
	}
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden files under testdata/golden (%v)", err)
	}
	for _, file := range files {
		id := strings.TrimSuffix(filepath.Base(file), ".txt")
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := NewRunner(0).Run(&got, id); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s output differs from %s (regenerate with make golden if intended):\n-- got --\n%s-- want --\n%s",
					id, file, got.String(), want)
			}
		})
	}
}
