package experiments

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
)

// ---------------------------------------------------------------------------
// Parallel job runner.
//
// Every experiment — and every point inside a sweep — is an independent
// deterministic simulation with its own sim.Env, so the evaluation is
// the classic Multiple-Replications-In-Parallel structure: enumerate
// jobs, execute each on its own goroutine on a bounded worker pool, and
// merge the results in job order. Because each job builds its own world
// and only reads the shared fixtures (a contract enforced by the
// sharedfixture pslint analyzer), the merged output is byte-identical
// to a serial run no matter how the host scheduler interleaves jobs.
// ---------------------------------------------------------------------------

// A Runner executes experiments on a bounded worker pool. The pool is
// shared across every experiment the Runner drives, so `psbench all -j N`
// keeps exactly N simulation jobs in flight regardless of how uneven
// the per-experiment job counts are.
type Runner struct {
	sem chan struct{}
}

// NewRunner returns a Runner executing at most workers simulation jobs
// at once; workers < 1 selects GOMAXPROCS.
func NewRunner(workers int) *Runner {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{sem: make(chan struct{}, workers)}
}

// Ctx is the execution context handed to one experiment invocation: the
// shared worker pool plus the experiment-scoped metrics buffer. Metrics
// are buffered per job and flushed in job order, so `-metrics` output is
// byte-identical between serial and parallel runs.
type Ctx struct {
	r       *Runner
	metrics bytes.Buffer
}

// Point is one job's private output context. Whatever a job writes
// through MetricsWriter surfaces after the experiment completes, in job
// order, never interleaved with other jobs.
type Point struct {
	on  bool
	buf bytes.Buffer
}

// MetricsWriter returns the job's metrics sink, or nil when metrics
// dumps are disabled (the default; see SetMetricsWriter).
func (p *Point) MetricsWriter() io.Writer {
	if p == nil || !p.on {
		return nil
	}
	return &p.buf
}

// MapPoints runs fn(i, pt) for every i in [0, n) as independent jobs on
// c's worker pool — each on its own goroutine, building its own world —
// and returns the results in index order. fn must be self-contained:
// beyond the read-only shared fixtures, everything it touches must be
// reachable only from its own stack (the sharedfixture pslint analyzer
// enforces the no-package-state rule). MapPoints is a barrier: it
// returns only after every job finished, with per-job metrics appended
// to the experiment's buffer in job order.
func MapPoints[T any](c *Ctx, n int, fn func(i int, pt *Point) T) []T {
	out := make([]T, n)
	pts := make([]*Point, n)
	panics := make([]any, n)
	stacks := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		pts[i] = &Point{on: metricsW != nil}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panics[i] = v
					stacks[i] = debug.Stack()
				}
			}()
			c.r.sem <- struct{}{}
			defer func() { <-c.r.sem }()
			out[i] = fn(i, pts[i])
		}(i)
	}
	wg.Wait()
	for i, v := range panics {
		if v != nil {
			// Re-panic on the caller's goroutine so a failing job surfaces
			// like a failing serial run (lowest job index wins, for a
			// deterministic failure).
			panic(fmt.Sprintf("experiments: job %d/%d panicked: %v\n%s", i, n, v, stacks[i]))
		}
	}
	for _, pt := range pts {
		c.metrics.Write(pt.buf.Bytes())
	}
	return out
}

// Run executes the experiments named by ids — Registry IDs or "all", in
// any mix — on r's worker pool, printing each result to w in the order
// the ids were given ("all" expands in Registry order). All ids are
// validated before anything runs. Experiments execute concurrently,
// their jobs sharing the pool, but results (and buffered metrics) are
// emitted strictly in id order, so the bytes written to w are identical
// for every pool width.
func (r *Runner) Run(w io.Writer, ids ...string) error {
	selected, err := resolve(ids)
	if err != nil {
		return err
	}
	type slot struct {
		ctx  *Ctx
		res  *Result
		done chan struct{}
	}
	slots := make([]*slot, len(selected))
	for i, e := range selected {
		s := &slot{ctx: &Ctx{r: r}, done: make(chan struct{})}
		slots[i] = s
		go func(e registryEntry) {
			defer close(s.done)
			s.res = e.Run(s.ctx)
		}(e)
	}
	for _, s := range slots {
		<-s.done
		flushMetrics(s.ctx)
		s.res.Print(w)
	}
	return nil
}

// resolve expands "all" and validates every id against the Registry,
// preserving the order ids were given.
func resolve(ids []string) ([]registryEntry, error) {
	var out []registryEntry
	for _, id := range ids {
		if id == "all" {
			out = append(out, Registry...)
			continue
		}
		found := false
		for _, e := range Registry {
			if e.ID == id {
				out = append(out, e)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown experiment %q (use one of: %s, or all)", id, allIDs())
		}
	}
	return out, nil
}

// flushMetrics forwards an experiment's buffered metrics dumps to the
// process-wide metrics writer, in the job order they were merged.
func flushMetrics(c *Ctx) {
	if metricsW != nil && c.metrics.Len() > 0 {
		metricsW.Write(c.metrics.Bytes()) //nolint:errcheck // best-effort, like the serial dumps were
	}
}
