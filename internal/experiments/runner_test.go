package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
)

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

// TestRunReturnsExperimentPanic: a panicking experiment fails Run with
// an error naming it — whether it panics in its own body or in one of
// its MapPoints jobs — after the results before it are printed; nothing
// after it is printed and the process survives.
func TestRunReturnsExperimentPanic(t *testing.T) {
	defer func(saved []registryEntry) { Registry = saved }(Registry)
	Registry = append(Registry[:len(Registry):len(Registry)],
		registryEntry{ID: "panics", Run: func(*Ctx) *Result { panic("boom") }},
		registryEntry{ID: "jobpanics", Run: func(c *Ctx) *Result {
			MapPoints(c, 4, func(i int, _ *Point) int { panic("job boom") })
			return nil
		}})
	var want bytes.Buffer
	if err := NewRunner(1).Run(&want, "table1"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"panics", "jobpanics"} {
		var out bytes.Buffer
		err := NewRunner(4).Run(&out, "table1", id, "launch", "panics")
		if err == nil {
			t.Fatalf("%s: Run returned no error", id)
		}
		if !strings.HasPrefix(err.Error(), "experiment "+id+" panicked: ") {
			t.Errorf("%s: error does not name the first failing id: %.80s", id, err)
		}
		if out.String() != want.String() {
			t.Errorf("%s: printed\n%s\nwant only table1's output\n%s", id, out.String(), want.String())
		}
	}
}

// cutWriter accepts n bytes, then fails every write.
type cutWriter struct{ n int }

var errCut = errors.New("writer cut")

func (c *cutWriter) Write(p []byte) (int, error) {
	if len(p) > c.n {
		n := c.n
		c.n = 0
		return n, errCut
	}
	c.n -= len(p)
	return len(p), nil
}

// TestRunReturnsWriteError: a failed write of a table or of an
// experiment's metrics fails Run with the writer's error.
func TestRunReturnsWriteError(t *testing.T) {
	var whole bytes.Buffer
	if err := NewRunner(2).Run(&whole, "launch", "table1"); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 10, whole.Len() - 1} {
		if err := NewRunner(2).Run(&cutWriter{n}, "launch", "table1"); !errors.Is(err, errCut) {
			t.Errorf("output cut after %d of %d bytes: Run returned %v", n, whole.Len(), err)
		}
	}
	defer func(saved []registryEntry) { Registry = saved }(Registry)
	Registry = append(Registry[:len(Registry):len(Registry)], registryEntry{ID: "dumps", Run: func(c *Ctx) *Result {
		c.metrics.WriteString("--- metrics ---\n")
		return &Result{ID: "dumps"}
	}})
	r := NewRunner(2)
	r.Metrics = &cutWriter{3}
	if err := r.Run(io.Discard, "dumps"); !errors.Is(err, errCut) {
		t.Errorf("metrics cut after 3 bytes: Run returned %v", err)
	}
}

// TestMapPointsOrderAndMetrics: results land in index order and per-job
// metrics are merged in index order, regardless of completion order.
func TestMapPointsOrderAndMetrics(t *testing.T) {
	var sink bytes.Buffer
	c := &Ctx{r: NewRunner(4)}
	c.r.Metrics = &sink
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
