package experiments

import (
	"io"
	"testing"
)

func TestRunUnknownID(t *testing.T) {
	if err := NewRunner(0).Run(io.Discard, "nonsense"); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if len(Registry) < 15 {
		t.Errorf("registry has %d experiments, expected 15", len(Registry))
	}
}
