package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses the numeric cell at (row, col) of a result.
func cell(t *testing.T, r *Result, row, col int) float64 {
	t.Helper()
	if row >= len(r.Rows) || col >= len(r.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d)", r.ID, row, col)
	}
	s := strings.TrimSuffix(strings.TrimSuffix(r.Rows[row][col], "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", r.ID, row, col, r.Rows[row][col])
	}
	return v
}

// runSolo runs one experiment driver the way Runner.Run does, on a
// private GOMAXPROCS-wide pool, flushing its buffered metrics at the end.
func runSolo(fn func(*Ctx) *Result) *Result {
	c := &Ctx{r: NewRunner(0)}
	res := fn(c)
	flushMetrics(c)
	return res
}

func TestRunUnknownID(t *testing.T) {
	if err := NewRunner(0).Run(discard{}, "nonsense"); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

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

func TestTable1MatchesPaperWithin15Percent(t *testing.T) {
	r := runSolo(table1)
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i := range r.Rows {
		for _, pair := range [][2]int{{1, 3}, {2, 4}} { // measured vs paper
			got, want := cell(t, r, i, pair[0]), cell(t, r, i, pair[1])
			if got < want*0.85 || got > want*1.15 {
				t.Errorf("row %d (%s): %v vs paper %v", i, r.Rows[i][0], got, want)
			}
		}
	}
}

func TestLaunchLatencyAnchors(t *testing.T) {
	r := runSolo(launchLatency)
	if one := cell(t, r, 0, 1); one < 3.7 || one > 3.9 {
		t.Errorf("launch(1) = %v us, want 3.8", one)
	}
	last := len(r.Rows) - 1
	if big := cell(t, r, last, 1); big < 4.0 || big > 4.2 {
		t.Errorf("launch(4096) = %v us, want 4.1", big)
	}
}

func TestFig2CrossoversInExperiment(t *testing.T) {
	r := runSolo(fig2)
	// Find rows for batches 256, 512, 1024, and the largest.
	byBatch := map[int][]float64{}
	for i := range r.Rows {
		b := int(cell(t, r, i, 0))
		byBatch[b] = []float64{cell(t, r, i, 1), cell(t, r, i, 2), cell(t, r, i, 3)}
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
	peak := byBatch[65536][2]
	if ratio := peak / byBatch[65536][0]; ratio < 6.5 || ratio > 13 {
		t.Errorf("peak GPU/CPU ratio = %.1f, want ≈10", ratio)
	}
}

func TestTable3SharesMatchPaper(t *testing.T) {
	r := runSolo(table3)
	want := []float64{4.9, 8.0, 50.2, 13.3, 9.8, 13.8}
	for i, w := range want {
		if got := cell(t, r, i, 2); got < w-1.5 || got > w+1.5 {
			t.Errorf("%s share = %v%%, paper %v%%", r.Rows[i][0], got, w)
		}
	}
}

func TestFig5Anchors(t *testing.T) {
	r := runSolo(fig5)
	if one := cell(t, r, 0, 1); one < 0.66 || one > 0.9 {
		t.Errorf("batch=1 = %v Gbps, paper 0.78", one)
	}
	var batch64 float64
	for i := range r.Rows {
		if cell(t, r, i, 0) == 64 {
			batch64 = cell(t, r, i, 1)
		}
	}
	if batch64 < 9.5 || batch64 > 11.5 {
		t.Errorf("batch=64 = %v Gbps, paper 10.5", batch64)
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine I/O sweep")
	}
	r := runSolo(fig6)
	for i := range r.Rows {
		rx, tx := cell(t, r, i, 1), cell(t, r, i, 2)
		fwd, cross := cell(t, r, i, 3), cell(t, r, i, 4)
		if tx < 76 || tx > 80.5 {
			t.Errorf("%sB TX = %v, paper 79.3-80.0", r.Rows[i][0], tx)
		}
		if rx < 53 || rx > 62 {
			t.Errorf("%sB RX = %v, paper 53.1-59.9", r.Rows[i][0], rx)
		}
		if fwd < 39 || fwd > 44.5 {
			t.Errorf("%sB forward = %v, paper >40 (41.1 at 64B)", r.Rows[i][0], fwd)
		}
		if cross < fwd*0.93 {
			t.Errorf("%sB node-crossing = %v collapsed vs %v", r.Rows[i][0], cross, fwd)
		}
		// RX < TX: the §3.2 asymmetry.
		if rx >= tx {
			t.Errorf("%sB: RX %v ≥ TX %v (asymmetry lost)", r.Rows[i][0], rx, tx)
		}
	}
}

func TestNUMAGap(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine NUMA sweep")
	}
	r := runSolo(numa)
	aware, blind := cell(t, r, 0, 1), cell(t, r, 1, 1)
	if aware < blind*1.2 {
		t.Errorf("aware %v vs blind %v: want ≥20%% gap (paper ≈60%%)", aware, blind)
	}
	if aware < 38 || aware > 43 {
		t.Errorf("aware = %v, paper ≈40", aware)
	}
}

func TestFig11aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("application sweep")
	}
	r := runSolo(fig11a)
	cpu64, gpu64 := cell(t, r, 0, 1), cell(t, r, 0, 2)
	if gpu64 <= cpu64 {
		t.Errorf("64B: GPU %v ≤ CPU %v (paper: 39 vs 28)", gpu64, cpu64)
	}
	if cpu64 < 22 || cpu64 > 31 {
		t.Errorf("64B CPU-only = %v, paper ≈28", cpu64)
	}
	if gpu64 < 31 || gpu64 > 41 {
		t.Errorf("64B CPU+GPU = %v, paper ≈39", gpu64)
	}
	// Larger packets: both I/O-bound near 40.
	for i := 1; i < len(r.Rows); i++ {
		for c := 1; c <= 2; c++ {
			if v := cell(t, r, i, c); v < 38 || v > 44 {
				t.Errorf("row %s col %d = %v, want ≈40-41", r.Rows[i][0], c, v)
			}
		}
	}
}

func TestFig11bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("application sweep")
	}
	r := runSolo(fig11b)
	cpu64, gpu64 := cell(t, r, 0, 1), cell(t, r, 0, 2)
	if cpu64 < 5 || cpu64 > 11 {
		t.Errorf("64B CPU-only = %v, paper ≈8 (memory-bound)", cpu64)
	}
	if gpu64 < 33 || gpu64 > 41 {
		t.Errorf("64B CPU+GPU = %v, paper 38.2", gpu64)
	}
	if gpu64 < cpu64*3.5 {
		t.Errorf("64B speedup %vx, IPv6 is the GPU's biggest win", gpu64/cpu64)
	}
}

func TestFig11cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("application sweep")
	}
	r := runSolo(fig11c)
	for i := range r.Rows {
		cpu, gpu := cell(t, r, i, 2), cell(t, r, i, 3)
		if gpu <= cpu {
			t.Errorf("row %v+%v: GPU %v ≤ CPU %v (paper: GPU wins everywhere)",
				r.Rows[i][0], r.Rows[i][1], gpu, cpu)
		}
	}
	// The NetFPGA-comparable configuration (32K exact + 32 wildcard).
	for i := range r.Rows {
		if r.Rows[i][0] == "32768" && r.Rows[i][1] == "32" {
			if gpu := cell(t, r, i, 3); gpu < 28 || gpu > 36 {
				t.Errorf("32K+32 GPU = %v, paper 32", gpu)
			}
		}
	}
	// Throughput declines with exact-table size (cache effects).
	if first, last := cell(t, r, 0, 2), cell(t, r, 4, 2); last >= first {
		t.Errorf("CPU-only flat across table sizes: %v → %v", first, last)
	}
}

func TestFig11dShape(t *testing.T) {
	if testing.Short() {
		t.Skip("application sweep (slow: real crypto)")
	}
	r := runSolo(fig11d)
	gpu64 := cell(t, r, 0, 2)
	if gpu64 < 9 || gpu64 > 12.5 {
		t.Errorf("64B CPU+GPU = %v, paper 10.2", gpu64)
	}
	last := len(r.Rows) - 1
	if g := cell(t, r, last, 2); g < 18.5 || g > 22 {
		t.Errorf("1514B CPU+GPU = %v, paper 20.0", g)
	}
	// ≈3.5x across sizes.
	for i := range r.Rows {
		cpu, gpu := cell(t, r, i, 1), cell(t, r, i, 2)
		if ratio := gpu / cpu; ratio < 2.4 || ratio > 5.5 {
			t.Errorf("row %s: GPU/CPU = %.1f, paper ≈3.5", r.Rows[i][0], ratio)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("latency sweep")
	}
	r := runSolo(fig12)
	// At a sustainable moderate load (4-8 Gbps), batching must not
	// increase latency, and the GPU path costs more than CPU batch but
	// stays bounded.
	for i := range r.Rows {
		offered := cell(t, r, i, 0)
		noBatch, batch, gpu := cell(t, r, i, 1), cell(t, r, i, 2), cell(t, r, i, 3)
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
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	r := runSolo(ablation)
	full := cell(t, r, 0, 1)
	byName := map[string]float64{}
	for i := range r.Rows {
		byName[r.Rows[i][0]] = cell(t, r, i, 1)
	}
	for name, v := range byName {
		if name == "full PacketShader (CPU+GPU)" {
			continue
		}
		if v >= full {
			t.Errorf("%q (%v) not worse than full (%v)", name, v, full)
		}
	}
	if skb := byName["skb buffers instead of huge buffers"]; skb > full/4 {
		t.Errorf("skb path %v vs %v: the huge buffer should matter most", skb, full)
	}
}
