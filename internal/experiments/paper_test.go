package experiments

import (
	"fmt"
	"slices"
	"testing"

	"packetshader/internal/sim"
)

// The paper checks: TestPaperPoints holds every number the paper states
// to its band, and the tests after it check the relations between
// cells the paper describes. Each reads the Results of the golden run
// (goldenResult), so none of them runs an experiment of its own, and
// each still runs when a change moves that experiment's bytes on
// purpose.

// TestPaperPoints holds every point of paperTable to its band, on the
// golden run's Result for the point's experiment (one subtest per id).
// A point also fails when its key names no cell (or, without a row
// wildcard, more than one), when its band is wider than its figure's
// plain tolerance but names no known deviation, and when it names a
// deviation although every cell is back inside the plain tolerance: the
// deviation has healed and the band should go.
func TestPaperPoints(t *testing.T) {
	for _, p := range paperTable {
		_, ok := paperTol[p.ID]
		if !ok || !slices.ContainsFunc(Registry, func(e registryEntry) bool { return e.ID == p.ID }) {
			t.Errorf("point (%s, %s, %s) names no experiment with a plain tolerance", p.ID, p.Row, p.Col)
		}
	}
	for _, e := range Registry {
		if _, ok := paperTol[e.ID]; ok {
			t.Run(e.ID, func(t *testing.T) {
				for _, p := range goldenResult(t, e.ID).Points() {
					checkPoint(t, p)
				}
			})
		}
	}
}

func checkPoint(t *testing.T, p PaperPoint) {
	t.Helper()
	key := fmt.Sprintf("point (%s, %s, %s)", p.ID, p.Row, p.Col)
	if len(p.Cells) == 0 || p.Row != "*" && len(p.Cells) > 1 {
		t.Errorf("%s names %d cells, want one", key, len(p.Cells))
		return
	}
	lo, hi := p.band()
	plo, phi := p.plain()
	if (lo < plo || hi > phi) && p.Deviation == "" {
		t.Errorf("%s: band %.4g..%.4g is wider than the plain tolerance %.4g..%.4g and names no known deviation", key, lo, hi, plo, phi)
	}
	healed := p.Deviation != ""
	for i, c := range p.Cells {
		if c.V < lo || c.V > hi {
			t.Errorf("%s at %s = %.4g, outside its band %.4g..%.4g", key, p.Rows[i], c.V, lo, hi)
		}
		healed = healed && c.V >= plo && c.V <= phi
	}
	if healed {
		t.Errorf("%s is back inside the plain tolerance %.4g..%.4g: deviation %q has healed; drop it and its band", key, plo, phi, p.Deviation)
	}
}

func TestFig2CrossoversInExperiment(t *testing.T) {
	r := goldenResult(t, "fig2")
	byBatch := map[float64][]float64{} // 1x X5550, 2x X5550, GTX480
	for _, row := range r.Rows {
		byBatch[row[0].V] = []float64{row[1].V, row[2].V, row[3].V}
	}
	if byBatch[256][2] >= byBatch[256][0] {
		t.Error("GPU already beats one CPU at batch 256")
	}
	if byBatch[512][2] <= byBatch[512][0] {
		t.Error("GPU does not beat one CPU at batch 512 (crossover ≈320)")
	}
	if byBatch[512][2] >= byBatch[512][1] {
		t.Error("GPU beats two CPUs at batch 512")
	}
	if byBatch[1024][2] <= byBatch[1024][1] {
		t.Error("GPU does not beat two CPUs at batch 1024 (crossover ≈640)")
	}
}

func TestFig6Shape(t *testing.T) {
	r := goldenResult(t, "fig6")
	for _, row := range r.Rows {
		size := row[0].text() + "B"
		rx, tx, fwd, cross := row[1].V, row[2].V, row[3].V, row[4].V
		if cross < fwd*0.93 {
			t.Errorf("%s node-crossing = %v collapsed vs %v", size, cross, fwd)
		}
		// RX < TX: the §3.2 asymmetry.
		if rx >= tx {
			t.Errorf("%s: RX %v ≥ TX %v (asymmetry lost)", size, rx, tx)
		}
	}
}

func TestNUMAGap(t *testing.T) {
	r := goldenResult(t, "numa")
	aware, blind := r.Rows[0][1].V, r.Rows[1][1].V
	if aware < blind*1.2 {
		t.Errorf("aware %v vs blind %v: want ≥20%% gap", aware, blind)
	}
}

func TestFig11aShape(t *testing.T) {
	r := goldenResult(t, "fig11a")
	cpu64, gpu64 := r.Rows[0][1].V, r.Rows[0][2].V
	if gpu64 <= cpu64 {
		t.Errorf("64B: GPU %v ≤ CPU %v", gpu64, cpu64)
	}
}

func TestFig11bShape(t *testing.T) {
	r := goldenResult(t, "fig11b")
	cpu64, gpu64 := r.Rows[0][1].V, r.Rows[0][2].V
	if gpu64 < cpu64*3.5 {
		t.Errorf("64B speedup %vx, IPv6 is the GPU's biggest win", gpu64/cpu64)
	}
}

func TestFig11cShape(t *testing.T) {
	r := goldenResult(t, "fig11c")
	for _, row := range r.Rows {
		exact, wild, cpu, gpu := row[0].V, row[1].V, row[2].V, row[3].V
		if gpu <= cpu {
			t.Errorf("row %v+%v: GPU %v ≤ CPU %v (paper: GPU wins everywhere)", exact, wild, gpu, cpu)
		}
	}
	// Throughput declines with exact-table size (cache effects).
	if first, last := r.Rows[0][2].V, r.Rows[4][2].V; last >= first {
		t.Errorf("CPU-only flat across table sizes: %v → %v", first, last)
	}
}

func TestFig12Shape(t *testing.T) {
	r := goldenResult(t, "fig12")
	// At a sustainable moderate load (4-8 Gbps), batching must not
	// increase latency, and the GPU path costs more than CPU batch but
	// stays bounded.
	for _, row := range r.Rows {
		offered, noBatch, batch, gpu := row[0].V, row[1].V, row[2].V, row[3].V
		if offered == 4 && batch > noBatch {
			t.Errorf("4 Gbps: batch %v > no-batch %v (batching should reduce queueing)", batch, noBatch)
		}
		// Compare GPU vs CPU-batch only where the CPU-only path is not
		// saturated (its IPv6 capacity is ≈7.4 Gbps at 64B).
		if gpu < batch && offered <= 4 {
			t.Errorf("%v Gbps: GPU latency %v below CPU batch %v", offered, gpu, batch)
		}
		if gpu > 500 {
			t.Errorf("%v Gbps: GPU latency %v us, above 500", offered, gpu)
		}
	}
}

func TestAblationDirections(t *testing.T) {
	r := goldenResult(t, "ablation")
	full := r.Rows[0][1].V
	for _, row := range r.Rows[1:] {
		name, v := row[0].text(), row[1].V
		if v >= full {
			t.Errorf("%q (%v) not worse than full (%v)", name, v, full)
		}
		if name == "skb buffers instead of huge buffers" && v > full/4 {
			t.Errorf("skb path %v vs %v: the huge buffer should matter most", v, full)
		}
	}
}

// TestFaultScenarioShape checks that the degradation curve has the
// advertised shape: full throughput, a CPU-only plateau within the
// envelope during the outage, and recovery back to baseline after the
// repair. The envelope is the number faults prints in its last note.
func TestFaultScenarioShape(t *testing.T) {
	r := goldenResult(t, "faults")
	envelope := r.noted[len(r.noted)-1].V
	repairMs := float64((faultAt + faultOutageLen) / sim.Millisecond)
	var baselineSum, baselineN float64
	afterRepair := -1.0
	for _, row := range r.Rows {
		tMs, gbps := row[0].V, row[1].V
		if tMs == repairMs+1 {
			afterRepair = gbps
		}
		switch row[2].text() {
		case "baseline":
			baselineSum += gbps
			baselineN++
		case "outage":
			if gbps <= 0 {
				t.Errorf("t=%vms: throughput collapsed to %.2f during outage", tMs, gbps)
			}
			if gbps > envelope*1.10 {
				t.Errorf("t=%vms: outage throughput %.2f exceeds CPU-only envelope %.2f",
					tMs, gbps, envelope)
			}
		}
	}
	baseline := baselineSum / baselineN
	if baseline <= envelope {
		t.Fatalf("baseline %.2f not above CPU-only envelope %.2f — GPU mode added nothing", baseline, envelope)
	}
	// Recovery: the first full window after the repair must be back near
	// baseline (the probe fires within one backoff of the repair).
	if afterRepair < 0 {
		t.Fatalf("no row for t=%vms, one window after repair", repairMs+1)
	}
	if afterRepair < 0.8*baseline {
		t.Errorf("t=%vms (first window after repair): %.2f Gbps, want >= 80%% of baseline %.2f",
			repairMs+1, afterRepair, baseline)
	}
}
