package experiments

import (
	"math"
	"testing"

	"packetshader/internal/core"
	"packetshader/internal/sim"
)

// TestPipelineStagesSumToResidence: in every column of the pipeline
// table, the per-stage means add up to the chunk residence mean, which
// is computed from the whole residence, within a picosecond.
func TestPipelineStagesSumToResidence(t *testing.T) {
	r := goldenResult(t, "pipeline")
	residence := r.Rows[core.NumStages]
	if residence[0].text() != "chunk residence" {
		t.Fatalf("row %d is %q, want the chunk residence", core.NumStages, residence[0].text())
	}
	for col := 1; col < len(r.Header); col++ {
		var sum float64
		for _, row := range r.Rows[:core.NumStages] {
			sum += row[col].V
		}
		if got := residence[col].V; math.Abs(sum-got) > sim.Picosecond.Microseconds() {
			t.Errorf("%s: stage means sum to %.9f us, the residence mean is %.9f us", r.Header[col], sum, got)
		}
	}
}
