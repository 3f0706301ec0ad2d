package experiments

import "testing"

// TestChurnDeterministicAcrossRuns extends the determinism contract to
// the control-plane path: the churn experiment replays a scripted
// route-update storm, so two in-process runs must render byte-identical
// tables. (The CI run-twice gate checks the same property across
// processes.)
func TestChurnDeterministicAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("churn runs a multi-second storm; skipped with -short")
	}
	first := render(runSolo(churn))
	second := render(runSolo(churn))
	if first != second {
		t.Fatalf("churn output diverged:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if len(first) == 0 {
		t.Fatal("churn rendered nothing")
	}
}
