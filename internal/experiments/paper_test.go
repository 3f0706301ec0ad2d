package experiments

import (
	"testing"

	"packetshader/internal/sim"
)

// The paper-shape checks: each reads the cells of one experiment's
// Result from the golden run (goldenResult), so none of them runs an
// experiment of its own, and each still runs when a change moves that
// experiment's bytes on purpose.

// inBand fails t unless lo ≤ v ≤ hi, naming what v is and the paper's
// figure for it.
func inBand(t *testing.T, what string, v, lo, hi float64, paper string) {
	t.Helper()
	if v < lo || v > hi {
		t.Errorf("%s = %v, want %v..%v (paper %s)", what, v, lo, hi, paper)
	}
}

func TestTable1MatchesPaperWithin15Percent(t *testing.T) {
	r := goldenResult(t, "table1")
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		for _, c := range []int{1, 2} { // h2d, d2h; the paper's two columns after them
			paper := row[c+2].V
			inBand(t, row[0].text()+" "+r.Header[c], row[c].V, paper*0.85, paper*1.15, row[c+2].text())
		}
	}
}

func TestLaunchLatencyAnchors(t *testing.T) {
	r := goldenResult(t, "launch")
	inBand(t, "launch(1) us", r.Rows[0][1].V, 3.7, 3.9, "3.8")
	inBand(t, "launch(4096) us", r.Rows[len(r.Rows)-1][1].V, 4.0, 4.2, "4.1")
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
	inBand(t, "peak GPU/CPU ratio", byBatch[65536][2]/byBatch[65536][0], 6.5, 13, "≈10")
}

// TestTable3SharesMatchPaper compares every bin's share with the paper
// column table3 prints beside it.
func TestTable3SharesMatchPaper(t *testing.T) {
	r := goldenResult(t, "table3")
	for _, row := range r.Rows {
		paper := row[3].V
		inBand(t, row[0].text()+" share %", row[2].V, paper-1.5, paper+1.5, row[3].text())
	}
}

func TestFig5Anchors(t *testing.T) {
	r := goldenResult(t, "fig5")
	inBand(t, "batch=1 Gbps", r.Rows[0][1].V, 0.66, 0.9, "0.78")
	var batch64 float64
	for _, row := range r.Rows {
		if row[0].V == 64 {
			batch64 = row[1].V
		}
	}
	inBand(t, "batch=64 Gbps", batch64, 9.5, 11.5, "10.5")
}

func TestFig6Shape(t *testing.T) {
	r := goldenResult(t, "fig6")
	for _, row := range r.Rows {
		size := row[0].text() + "B"
		rx, tx, fwd, cross := row[1].V, row[2].V, row[3].V, row[4].V
		inBand(t, size+" TX", tx, 76, 80.5, "79.3-80.0")
		inBand(t, size+" RX", rx, 53, 62, "53.1-59.9")
		inBand(t, size+" forward", fwd, 39, 44.5, ">40, 41.1 at 64B")
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
		t.Errorf("aware %v vs blind %v: want ≥20%% gap (paper ≈60%%)", aware, blind)
	}
	inBand(t, "aware", aware, 38, 43, "≈40")
}

func TestFig11aShape(t *testing.T) {
	r := goldenResult(t, "fig11a")
	cpu64, gpu64 := r.Rows[0][1].V, r.Rows[0][2].V
	if gpu64 <= cpu64 {
		t.Errorf("64B: GPU %v ≤ CPU %v (paper: 39 vs 28)", gpu64, cpu64)
	}
	inBand(t, "64B CPU-only", cpu64, 22, 31, "≈28")
	inBand(t, "64B CPU+GPU", gpu64, 31, 41, "≈39")
	// Larger packets: both I/O-bound near 40.
	for _, row := range r.Rows[1:] {
		for c := 1; c <= 2; c++ {
			inBand(t, row[0].text()+"B "+r.Header[c], row[c].V, 38, 44, "≈40-41")
		}
	}
}

func TestFig11bShape(t *testing.T) {
	r := goldenResult(t, "fig11b")
	cpu64, gpu64 := r.Rows[0][1].V, r.Rows[0][2].V
	inBand(t, "64B CPU-only", cpu64, 5, 11, "≈8, memory-bound")
	inBand(t, "64B CPU+GPU", gpu64, 33, 41, "38.2")
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
		// The NetFPGA-comparable configuration (32K exact + 32 wildcard).
		if exact == 32768 && wild == 32 {
			inBand(t, "32K+32 GPU", gpu, 28, 36, "32")
		}
	}
	// Throughput declines with exact-table size (cache effects).
	if first, last := r.Rows[0][2].V, r.Rows[4][2].V; last >= first {
		t.Errorf("CPU-only flat across table sizes: %v → %v", first, last)
	}
}

func TestFig11dShape(t *testing.T) {
	r := goldenResult(t, "fig11d")
	inBand(t, "64B CPU+GPU", r.Rows[0][2].V, 9, 12.5, "10.2")
	inBand(t, "1514B CPU+GPU", r.Rows[len(r.Rows)-1][2].V, 18.5, 22, "20.0")
	for _, row := range r.Rows {
		inBand(t, row[0].text()+"B GPU/CPU", row[2].V/row[1].V, 2.4, 5.5, "≈3.5")
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
			t.Errorf("%v Gbps: GPU latency %v us, paper stays 200-400", offered, gpu)
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
