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

// TestPipelineCoreSharesAtMost100: the worker and master cores' shares
// are of the window, clipped at its edges, so in every column each is
// between 0 and 100 %, and so are the workers' work and wait together.
func TestPipelineCoreSharesAtMost100(t *testing.T) {
	r := goldenResult(t, "pipeline")
	rows := map[string][]Cell{}
	for _, row := range r.Rows {
		rows[row[0].text()] = row
	}
	for _, label := range []string{"workers work", "workers wait", "masters"} {
		if rows[label] == nil {
			t.Fatalf("no %q row", label)
		}
	}
	for col := 1; col < len(r.Header); col++ {
		work, wait := rows["workers work"][col].V, rows["workers wait"][col].V
		for _, v := range []struct {
			what  string
			share float64
		}{{"workers work", work}, {"workers wait", wait}, {"workers work + wait", work + wait}, {"masters", rows["masters"][col].V}} {
			// A core busy the whole window reads 100 % up to rounding.
			if v.share < 0 || v.share > 100+1e-9 {
				t.Errorf("%s: %s is %.3f %%, want 0–100 %%", r.Header[col], v.what, v.share)
			}
		}
	}
}
