package experiments

import (
	"math"
	"testing"
)

// TestFabricMatchesModel holds the fabric experiment's simulation to its
// oracle column, on the golden run's cells. On every mesh row the
// fabric ran, offered at 0.9 of what cluster.Evaluate admits, the
// fabric must deliver at least 95 % of the offer (the shortfall is what
// the horizon leaves in flight) and take the model's mean hop count to
// within 0.03; and on a permutation, where one direct link carries a
// box's whole load, VLB must deliver more than direct from 4 nodes up.
func TestFabricMatchesModel(t *testing.T) {
	r := goldenResult(t, "fabric")
	col := func(row []Cell, name string) Cell {
		c, ok := r.column(row, name)
		if !ok {
			t.Fatalf("fabric has no column %s", name)
		}
		return c
	}
	delivered := map[string]float64{} // "mesh-8 permutation vlb" → Gbps
	ran := 0
	for _, row := range r.Rows {
		key := rowText([]Cell{col(row, "Topology"), col(row, "Matrix"), col(row, "Scheme")})
		if col(row, "model-hops").verb == "" || col(row, "offered").verb == "" {
			continue // a leaf-spine row (no model) or direct-vlb (no run)
		}
		ran++
		offered, got := col(row, "offered").V, col(row, "delivered").V
		if got < 0.95*offered {
			t.Errorf("%s: delivered %.1f of %.0f Gbps offered, under 95%%", key, got, offered)
		}
		hops, model := col(row, "hops").V, col(row, "model-hops").V
		if math.Abs(hops-model) > 0.03 {
			t.Errorf("%s: %.2f hops, off the model's %.2f by more than 0.03", key, hops, model)
		}
		delivered[key] = got
	}
	if ran != 24 {
		t.Errorf("%d mesh rows ran the fabric, want 24 (4 sizes x 3 matrices x direct, vlb)", ran)
	}
	for _, mesh := range []string{"mesh-4", "mesh-8", "mesh-16"} {
		if vlb, direct := delivered[mesh+" permutation vlb"], delivered[mesh+" permutation direct"]; !(vlb > direct) {
			t.Errorf("%s permutation: vlb delivered %.1f Gbps, not above direct's %.1f", mesh, vlb, direct)
		}
	}
}
