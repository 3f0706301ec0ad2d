package main

import (
	"fmt"
	"math"
	"time"

	"packetshader/internal/sim"
)

// result is one run of one workload: what the result file holds and
// what compare reads back.
type result struct {
	Env       envRecord              `json:"env"`
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Passes    int                    `json:"passes"`
	WarmNs    float64                `json:"warm_sim_ns"`
	WindowNs  float64                `json:"window_sim_ns"`
	Attempted int                    `json:"attempted_ops"`
	Failed    int                    `json:"failed_ops"`
	Checks    []check                `json:"checks"`
	Failures  []string               `json:"failures,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	RawWall   float64                `json:"raw_wall_ns_per_sim_ns"` // as measured, before scaling to calRefMs
	RawSetupS float64                `json:"raw_setup_s"`
	WallP50   float64                `json:"wall_ns_per_sim_ns_p50"`
	WallP75   float64                `json:"wall_ns_per_sim_ns_p75"`
	WallMax   float64                `json:"wall_ns_per_sim_ns_max"`
	Samples   []float64              `json:"wall_ns_per_sim_ns_samples"`
	Slices    [][]float64            `json:"slice_wall_ns_samples"`
	SetupS    []float64              `json:"setup_s_samples"`
	CalALUMs  float64                `json:"host_cal_alu_ms"`
	CalMemMs  float64                `json:"host_cal_mem_ms"`
	CalALU    []float64              `json:"host_cal_alu_ms_samples"`
	CalMem    []float64              `json:"host_cal_mem_ms_samples"`
	LayerRows []string               `json:"layer_table,omitempty"`
}

// run is the state of one workload across the rounds of a benchmark run.
type run struct {
	w       *workload
	o       options
	sibling *workload
	checks  []check
	plain   []pass // untraced passes of w: the end-to-end samples
	traced  []pass
	sib     []pass // traced passes of the sibling workload
	obsOn   []pass // passes with the program's own observability on
	calALU  []float64
	calMem  []float64
	tr      *tracer
	sibTr   *tracer
	spent   time.Duration      // wall time used so far, the verify phase included
	extra   map[string]float64 // micro-drivers and the fidelity pass
}

// rounds is how many rounds r has completed.
func (r *run) rounds() int { return len(r.plain) }

// wantsMore says whether r should run another round: a fixed count when
// -passes is given, otherwise as many as fit the time budget.
func (r *run) wantsMore() bool {
	n := r.rounds()
	lo, hi, budget := minPasses, math.MaxInt, r.o.seconds
	if r.o.trace {
		// Leave the other half of the budget to the micro-drivers and
		// the fidelity pass.
		lo, hi, budget = minRounds, maxRounds, r.o.seconds/2
	}
	switch {
	case r.o.passes > 0:
		return n < r.o.passes
	case n < lo:
		return true
	case n >= hi:
		return false
	}
	next := r.spent + r.spent/time.Duration(n)
	return next.Seconds() <= budget
}

// round samples the host calibrators and makes one pass of each kind the
// mode needs, interleaved so that host drift hits them alike. The memory
// calibrator is sampled at every phase boundary of the untraced pass:
// before its set-up here and, where set-up takes long, before its window.
func (r *run) round() {
	t0 := time.Now()
	n := r.rounds()
	r.calALU = append(r.calALU, calALU())
	r.calMem = append(r.calMem, calMem())
	if r.o.trace {
		r.traced = append(r.traced, r.w.runPass(r.o.seed, r.tr, n, false))
	}
	p := r.w.runPass(r.o.seed, nil, n, false)
	r.plain = append(r.plain, p)
	if p.calMem > 0 {
		r.calMem = append(r.calMem, p.calMem)
	}
	if r.o.trace && r.sibling != nil {
		r.sib = append(r.sib, r.sibling.runPass(r.o.seed, r.sibTr, n, false))
	}
	if r.o.trace && r.w.priceObs {
		r.obsOn = append(r.obsOn, r.w.runPass(r.o.seed, nil, n, true))
	}
	r.spent += time.Since(t0)
}

// finish runs what a traced run does once, after its rounds: the
// micro-drivers and the fidelity pass. Each is one more op.
func (r *run) finish() {
	if !r.o.trace {
		return
	}
	r.extra = map[string]float64{}
	r.checks = append(r.checks, newCheck("micro-drivers", func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		r.extra = microDrivers(r.o.seed, r.o.sz)
		return nil
	}(), "every layer priced stand-alone"))
	if r.w.paperGbps == 0 {
		return
	}
	fid := *r.w
	fid.warm, fid.window = paperWarm/r.o.sz.div, paperWindow/r.o.sz.div
	p := fid.runPass(r.o.seed, nil, 0, false)
	if p.err == nil {
		r.extra["model.fidelity_err_pct"] = 100 * math.Abs(p.paperFigure(r.w)-r.w.paperGbps) / r.w.paperGbps
	}
	r.checks = append(r.checks, newCheck("fidelity-pass", p.err, fmt.Sprintf("%.4g Gbps against the paper's %g", p.paperFigure(r.w), r.w.paperGbps)))
}

// column returns one field of every pass as a sample.
func column(ps []pass, f func(*pass) float64) []float64 {
	xs := make([]float64, len(ps))
	for i := range ps {
		xs[i] = f(&ps[i])
	}
	return xs
}

// quietNs is what the window costs on a quiet host, in wall ns. Slice k
// of the window does the same simulated work in every pass and host noise
// only ever adds, so it is the fastest pass of each slice, summed.
func quietNs(ps []pass) float64 {
	total := 0.0
	for k := range ps[0].sliceNs {
		total += quantile(column(ps, func(p *pass) float64 { return p.sliceNs[k] }), 0)
	}
	return total
}

// result folds the run into its metrics and counts its failures.
func (r *run) result(env envRecord) *result {
	w := r.w
	simNs := float64(w.window) / float64(sim.Nanosecond)
	simMs := float64(w.window) / float64(sim.Millisecond)
	res := &result{
		Env: env, Workload: w.name, Seed: r.o.seed, Trace: r.o.trace,
		Passes: len(r.plain), WarmNs: float64(w.warm) / float64(sim.Nanosecond), WindowNs: simNs,
		Checks:   r.checks,
		CalALUMs: median(r.calALU), CalMemMs: median(r.calMem), CalALU: r.calALU, CalMem: r.calMem,
	}

	// Failure accounting: every check and every pass is one op. Passes
	// that failed stay out of the statistics.
	for _, c := range r.checks {
		if !c.OK {
			res.Failures = append(res.Failures, "check "+c.Name+": "+c.Detail)
		}
	}
	var first *pass // the simulated figures every other pass must repeat
	sound := func(kind string, ps []pass, repeat bool) []pass {
		var good []pass
		for i := range ps {
			p := &ps[i]
			if p.err == nil && repeat && first == nil {
				first = p
			}
			switch {
			case p.err != nil:
				res.Failures = append(res.Failures, fmt.Sprintf("%s pass %d: %v", kind, i, p.err))
			case repeat && !p.sameSim(first):
				res.Failures = append(res.Failures, fmt.Sprintf("%s pass %d: simulated figures differ from the first pass (%v Gbps, %v us vs %v, %v)",
					kind, i, p.gbps, p.latencyUs, first.gbps, first.latencyUs))
			default:
				good = append(good, *p)
			}
		}
		return good
	}
	res.Attempted = len(r.checks) + len(r.plain) + len(r.traced) + len(r.obsOn) + len(r.sib)
	r.plain = sound("untraced", r.plain, true)
	r.traced = sound("traced", r.traced, true) // decorators must be transparent
	r.obsOn = sound("obs-on", r.obsOn, true)   // and so must the program's own observability
	r.sib = sound("sibling", r.sib, false)
	if r.tr != nil {
		res.Attempted++
		if err := r.tr.consistent(); err != nil {
			res.Failures = append(res.Failures, "spans: "+err.Error())
		}
	}
	res.Failed = len(res.Failures)
	res.EndToEnd = named(endToEnd, nil)
	if r.o.trace {
		res.PerLayer = named(perLayer, nil)
	}
	if len(r.plain) == 0 || (r.o.trace && len(r.traced) == 0) {
		return res // nothing sound to report: every metric reads 0 and correct is false
	}

	wall := column(r.plain, func(p *pass) float64 { return p.windowNs / simNs })
	res.Samples = wall
	for i := range r.plain {
		res.Slices = append(res.Slices, r.plain[i].sliceNs)
	}
	res.SetupS = column(r.plain, func(p *pass) float64 { return p.setupNs / 1e9 })
	res.WallP50, res.WallP75, res.WallMax = median(wall), quantile(wall, 0.75), quantile(wall, 1)
	// The two gated host times are reported at the reference memory speed:
	// the shared host's speed drifts by tens of percent over minutes, the
	// calibrator drifts with it, and each time is scaled by the calibrator's
	// statistic of the same kind over the same run (fastest with fastest,
	// median with median).
	res.RawWall, res.RawSetupS = quietNs(r.plain)/simNs, median(res.SetupS)
	res.EndToEnd = named(endToEnd, map[string]float64{
		"setup_s":             res.RawSetupS * calRefMs / median(r.calMem),
		"wall_ns_per_sim_ns":  res.RawWall * calRefMs / quantile(r.calMem, 0),
		"allocs_per_sim_ms":   median(column(r.plain, func(p *pass) float64 { return p.mallocs })) / simMs,
		"alloc_kb_per_sim_ms": median(column(r.plain, func(p *pass) float64 { return p.allocB })) / 1024 / simMs,
		"live_heap_mb":        median(column(r.plain, func(p *pass) float64 { return p.liveHeap })) / (1 << 20),
		"sim_delivered_gbps":  first.gbps,
		"sim_mean_latency_us": first.latencyUs,
	})
	if r.o.trace {
		layer := r.perLayer(res)
		res.PerLayer = named(perLayer, layer)
		res.LayerRows = r.layerTable(layer)
	}
	return res
}

// named attaches units to values in the order and under the names of defs;
// a metric the run did not measure reads 0.
func named(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	return out
}
