package experiments

import (
	"math"
	"strconv"
	"strings"
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

// TestPipelineCoreSharesAtMost100: every share in the pipeline table —
// the worker and master cores' and every server's — is of the window,
// clipped at its edges, so in every column each is between 0 and 100 %,
// and so are the workers' work and wait together.
func TestPipelineCoreSharesAtMost100(t *testing.T) {
	r := goldenResult(t, "pipeline")
	rows := map[string][]Cell{}
	var servers []string
	for _, row := range r.Rows {
		label := row[0].text()
		rows[label] = row
		if strings.Contains(label, "#") {
			servers = append(servers, label)
		}
	}
	for _, label := range []string{"workers work", "workers wait", "masters"} {
		if rows[label] == nil {
			t.Fatalf("no %q row", label)
		}
	}
	if len(servers) == 0 {
		t.Fatal("no server rows")
	}
	type share struct {
		what  string
		share float64
	}
	for col := 1; col < len(r.Header); col++ {
		work, wait := rows["workers work"][col].V, rows["workers wait"][col].V
		shares := []share{{"workers work", work}, {"workers wait", wait}, {"workers work + wait", work + wait}, {"masters", rows["masters"][col].V}}
		for _, label := range servers {
			shares = append(shares, share{label, rows[label][col].V})
		}
		for _, v := range shares {
			// A core or server busy the whole window reads 100 % up to
			// rounding.
			if v.share < 0 || v.share > 100+1e-9 {
				t.Errorf("%s: %s is %.3f %%, want 0–100 %%", r.Header[col], v.what, v.share)
			}
		}
	}
}

// TestUtilLinesAtMost1000: a server's busy time counts service up to the
// instant it is read, so no util line of the golden run's metrics dumps
// reads an occupancy over 1000 ‰ of the run.
func TestUtilLinesAtMost1000(t *testing.T) {
	goldenResult(t, "fig11a")
	n := 0
	for _, line := range strings.Split(string(golden.out), "\n") {
		if !strings.HasPrefix(line, "util ") {
			continue
		}
		n++
		_, occ, ok := strings.Cut(line, " occ=")
		if v, err := strconv.Atoi(occ); !ok || err != nil || v < 0 || v > 1000 {
			t.Errorf("util line over 1000 ‰ (or unreadable): %s", line)
		}
	}
	if n == 0 {
		t.Fatal("the golden run printed no util line")
	}
}

// TestWorkerCyclesAccountTheStages: the workers table's cost rows add up
// to its total, and that total is what the worker stages of a run
// measure per chunk, within a cycle per packet — every cycle a worker
// spends on a full-load chunk is named by a model constant. The total
// exceeds the budget at the paper's rate, which is what puts the
// workers beside the masters in deviation 1.
func TestWorkerCyclesAccountTheStages(t *testing.T) {
	r := goldenResult(t, "workers")
	rows := map[string][]Cell{}
	var sum float64
	costs := true // the rows above the total
	for _, row := range r.Rows {
		label := row[0].text()
		rows[label] = row
		costs = costs && label != "total"
		if costs {
			sum += row[2].V
		}
	}
	total, measured, budget := rows["total"], rows["measured"], rows["budget at paper Gbps"]
	if total == nil || measured == nil || budget == nil {
		t.Fatalf("want total, measured and budget rows in %v", r.Rows)
	}
	if math.Abs(sum-total[2].V) > 0.5 {
		t.Errorf("cost rows sum to %.1f cycles, the total row reads %.1f", sum, total[2].V)
	}
	if math.Abs(measured[2].V-total[2].V) > 256 {
		t.Errorf("the worker stages measure %.0f cycles per chunk, the model constants account %.0f", measured[2].V, total[2].V)
	}
	if total[3].V <= budget[3].V {
		t.Errorf("a chunk costs %.2f us, within the %.2f us budget: the workers would not bind", total[3].V, budget[3].V)
	}
}
