package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// fastIDs is a subset of the Registry cheap enough to run twice in a
// regression test yet wide enough to exercise multi-point sweeps,
// shared fixtures (fig2 reads IPv6Fixture), and pure-model experiments.
var fastIDs = []string{"table1", "launch", "fig2", "fig5", "cluster"}

// TestParallelOutputByteIdenticalToSerial is the tentpole's contract:
// a wide pool must emit exactly the bytes a serial run emits, metrics
// dumps included.
func TestParallelOutputByteIdenticalToSerial(t *testing.T) {
	var serial, parallel bytes.Buffer
	var serialMetrics, parallelMetrics bytes.Buffer

	SetMetricsWriter(&serialMetrics)
	if err := NewRunner(1).Run(&serial, fastIDs...); err != nil {
		t.Fatal(err)
	}
	SetMetricsWriter(&parallelMetrics)
	err := NewRunner(8).Run(&parallel, fastIDs...)
	SetMetricsWriter(nil)
	if err != nil {
		t.Fatal(err)
	}

	if serial.Len() == 0 {
		t.Fatal("serial run produced no output")
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Errorf("-j 8 output differs from -j 1:\n-- serial --\n%s\n-- parallel --\n%s",
			serial.String(), parallel.String())
	}
	if !bytes.Equal(serialMetrics.Bytes(), parallelMetrics.Bytes()) {
		t.Errorf("-j 8 metrics differ from -j 1 (%d vs %d bytes)",
			serialMetrics.Len(), parallelMetrics.Len())
	}
}

// TestRunMultipleIDsMatchesConcatenation checks that one Run over many
// ids prints each result exactly as a standalone run would, in the
// order given.
func TestRunMultipleIDsMatchesConcatenation(t *testing.T) {
	ids := []string{"launch", "table1", "cluster"}
	var combined bytes.Buffer
	if err := NewRunner(4).Run(&combined, ids...); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, id := range ids {
		if err := NewRunner(1).Run(&want, id); err != nil {
			t.Fatal(err)
		}
	}
	if combined.String() != want.String() {
		t.Errorf("multi-id run differs from per-id concatenation:\n-- got --\n%s\n-- want --\n%s",
			combined.String(), want.String())
	}
}

// TestRunValidatesBeforeRunning: an unknown id anywhere in the list
// must fail the whole invocation before any experiment prints.
func TestRunValidatesBeforeRunning(t *testing.T) {
	var out bytes.Buffer
	err := NewRunner(2).Run(&out, "table1", "nonesuch")
	if err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
	if !strings.Contains(err.Error(), `"nonesuch"`) {
		t.Errorf("error does not name the bad id: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("output written despite invalid id list:\n%s", out.String())
	}
}

// TestMapPointsOrderAndMetrics: results land in index order and per-job
// metrics are merged in index order, regardless of completion order.
func TestMapPointsOrderAndMetrics(t *testing.T) {
	var sink bytes.Buffer
	SetMetricsWriter(&sink)
	defer SetMetricsWriter(nil)

	c := &Ctx{r: NewRunner(4)}
	var running atomic.Int32
	vals := MapPoints(c, 16, func(i int, pt *Point) int {
		running.Add(1)
		defer running.Add(-1)
		fmt.Fprintf(pt.MetricsWriter(), "job %d\n", i)
		return i * i
	})
	flushMetrics(c)

	if n := running.Load(); n != 0 {
		t.Fatalf("MapPoints returned with %d jobs still running", n)
	}
	for i, v := range vals {
		if v != i*i {
			t.Fatalf("vals[%d] = %d, want %d", i, v, i*i)
		}
	}
	var want strings.Builder
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&want, "job %d\n", i)
	}
	if sink.String() != want.String() {
		t.Errorf("metrics out of job order:\n%s", sink.String())
	}
}

// TestMapPointsMetricsDisabled: with no metrics writer installed, jobs
// see a nil writer and pay nothing.
func TestMapPointsMetricsDisabled(t *testing.T) {
	c := &Ctx{r: NewRunner(2)}
	MapPoints(c, 4, func(i int, pt *Point) struct{} {
		if pt.MetricsWriter() != nil {
			t.Errorf("job %d: MetricsWriter non-nil with metrics disabled", i)
		}
		return struct{}{}
	})
}

// TestMapPointsPanicPropagates: a panicking job must fail the caller
// (deterministically: the lowest panicking index), not hang the pool.
func TestMapPointsPanicPropagates(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic did not propagate out of MapPoints")
		}
		if s, ok := v.(string); !ok || !strings.Contains(s, "job 3/8") {
			t.Errorf("panic does not name the lowest failing job: %v", v)
		}
	}()
	c := &Ctx{r: NewRunner(4)}
	MapPoints(c, 8, func(i int, _ *Point) int {
		if i >= 3 {
			panic("boom")
		}
		return i
	})
}

// TestRunnerWorkersDefault: workers < 1 selects GOMAXPROCS, and the
// pool width is what bounds concurrent jobs.
func TestRunnerBoundsConcurrency(t *testing.T) {
	c := &Ctx{r: NewRunner(2)}
	var inFlight, peak atomic.Int32
	MapPoints(c, 12, func(i int, _ *Point) struct{} {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer inFlight.Add(-1)
		return struct{}{}
	})
	if p := peak.Load(); p > 2 {
		t.Errorf("pool of width 2 had %d jobs in flight", p)
	}
	if cap(NewRunner(0).sem) < 1 {
		t.Error("NewRunner(0) must select at least one worker")
	}
}
