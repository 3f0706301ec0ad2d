package main

import (
	"fmt"
	"runtime"
	"time"

	"packetshader/internal/cluster"
	"packetshader/internal/core"
	"packetshader/internal/ctrl"
	"packetshader/internal/obs"
	"packetshader/internal/sim"
)

// pass is what one pass measured: a fresh instance built from the seed,
// warmed up for W, then one timed window of T. Same seed, same simulated
// work, so the spread between passes is host noise alone.
type pass struct {
	setupNs  float64 // wall: nothing -> warmed-up instance
	calMem   float64 // router passes: a calibrator sample between set-up and window
	windowNs float64 // wall: the timed window
	// sliceNs is the window's wall time split over equal slices of
	// virtual time: slice k does the same simulated work in every pass.
	sliceNs  []float64
	mallocs  float64
	allocB   float64
	liveHeap float64 // HeapAlloc after a forced GC, instance still reachable
	gcCycles float64

	gbps, latencyUs float64              // the two simulated end-to-end figures
	inputGbps       float64              // accepted input throughput (the paper's IPsec metric)
	fabric          cluster.FabricResult // zero for router workloads
	layer           map[string]float64   // per-layer metrics this pass can give
	err             error

	// A traced router pass also keeps the window's wall time split by span
	// kind (the root's slot holds its self time) and the packets fetched,
	// for the by-layer table.
	kindNs [numKinds]float64
	pkts   float64
}

// sameSim reports whether two passes simulated exactly the same thing.
func (p *pass) sameSim(q *pass) bool {
	return p.gbps == q.gbps && p.latencyUs == q.latencyUs && p.fabric == q.fabric
}

// window runs fn between two reads of the allocator's counters, after a
// forced collection so that every pass starts from the same heap state,
// and fills the pass's host-clock fields. keep is held live across the
// final collection: live_heap_mb is the heap the instance still needs, plus
// the harness's own (the 32 MiB calibration table and, growing by well under
// 1 MiB over a run, its samples). The table stays in the figure on purpose:
// a fabric pass ends with its world closed and next to nothing live, and a
// relative bound on next to nothing holds no better than the harness's own
// few hundred KiB repeat.
func (p *pass) window(tr *tracer, passNo int, keep any, fn func()) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if tr != nil {
		tr.startPass(passNo)
	}
	t0 := time.Now()
	fn()
	p.windowNs = float64(time.Since(t0).Nanoseconds())
	if tr != nil {
		tr.endPass()
	}
	runtime.ReadMemStats(&m1)
	p.mallocs = float64(m1.Mallocs - m0.Mallocs)
	p.allocB = float64(m1.TotalAlloc - m0.TotalAlloc)
	p.gcCycles = float64(m1.NumGC - m0.NumGC)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.liveHeap = float64(m1.HeapAlloc)
	runtime.KeepAlive(keep)
}

// counters is the cumulative state of a router the per-layer counts are
// differenced from: none of it is reset between Run calls.
type counters struct {
	stats                   core.Stats
	rx, rxDrop, tx, txDrop  uint64
	iohUp, iohDown, gpuExec sim.Duration
}

func snapshot(r *core.Router) counters {
	c := counters{stats: r.Stats}
	c.rx, c.rxDrop, c.tx, c.txDrop = r.Engine.AggregateStats()
	for _, h := range r.Engine.IOHs {
		c.iohUp += h.UpBusy()
		c.iohDown += h.DownBusy()
	}
	for _, d := range r.Devices {
		c.gpuExec += d.ExecBusy()
	}
	return c
}

// runPass runs one pass of w and never panics: a failure comes back in
// pass.err so the other workloads still run. withObs turns the program's
// own observability on (Instance.EnableObs with a tracer and a registry),
// to price it.
func (w *workload) runPass(seed int64, tr *tracer, passNo int, withObs bool) (p pass) {
	defer func() {
		if r := recover(); r != nil {
			p.err = fmt.Errorf("panic: %v", r)
		}
	}()
	p.layer = map[string]float64{}
	w.setProcs()
	if w.fabric != nil {
		w.fabricPass(&p, seed, tr, passNo)
	} else {
		w.routerPass(&p, seed, tr, passNo, withObs)
	}
	return p
}

func (w *workload) routerPass(p *pass, seed int64, tr *tracer, passNo int, withObs bool) {
	t0 := time.Now()
	ri, err := w.router(seed, tr)
	if err != nil {
		p.err = err
		return
	}
	inst := ri.inst
	defer inst.Env.Close()
	if withObs {
		inst.EnableObs(obs.NewTracer(), obs.NewRegistry())
	}
	inst.Run(w.warm)
	ctl, err := ri.arm()
	if err != nil {
		p.err = err
		return
	}
	p.setupNs = float64(time.Since(t0).Nanoseconds())
	p.calMem = calMem()

	before := snapshot(inst.Router)
	p.sliceNs = make([]float64, w.slices)
	p.window(tr, passNo, inst, func() {
		for k := range p.sliceNs {
			t := time.Now()
			rep := inst.Run(w.window / sim.Duration(w.slices))
			p.sliceNs[k] = float64(time.Since(t).Nanoseconds())
			// Equal slices: the window's rate is the mean of theirs. The
			// latency sink is cumulative, so the last report has it all.
			p.gbps += rep.DeliveredGbps / float64(w.slices)
			p.inputGbps += rep.InputGbps / float64(w.slices)
			p.latencyUs = rep.MeanLatencyUs
		}
	})
	after := snapshot(inst.Router)

	ms := float64(w.window) / float64(sim.Millisecond)
	l := p.layer
	st, st0 := after.stats, before.stats
	chunks := float64(st.ChunksCPU + st.ChunksGPU - st0.ChunksCPU - st0.ChunksGPU)
	pkts := float64(after.rx - before.rx)
	l["nic.rx_pkts"] = pkts / ms
	l["nic.rx_drop_pkts"] = float64(after.rxDrop-before.rxDrop) / ms
	l["nic.tx_pkts"] = float64(after.tx-before.tx) / ms
	l["nic.tx_drop_pkts"] = float64(after.txDrop-before.txDrop) / ms
	hubs := float64(len(inst.Router.Engine.IOHs))
	l["pcie.ioh_up_util_pct"] = 100 * float64(after.iohUp-before.iohUp) / float64(w.window) / hubs
	l["pcie.ioh_down_util_pct"] = 100 * float64(after.iohDown-before.iohDown) / float64(w.window) / hubs
	l["gpu.launches_per_sim_ms"] = float64(st.GPULaunches-st0.GPULaunches) / ms
	if n := len(inst.Router.Devices); n > 0 {
		l["gpu.exec_util_pct"] = 100 * float64(after.gpuExec-before.gpuExec) / float64(w.window) / float64(n)
	}
	l["core.chunks_per_sim_ms"] = chunks / ms
	if chunks > 0 {
		l["core.pkts_per_chunk"] = float64(st.Packets-st0.Packets) / chunks
		l["core.chunk_reuse_ratio"] = float64(st.ChunkReuses-st0.ChunkReuses) / chunks
	}
	l["core.fallback_chunks"] = float64(st.FallbackChunks - st0.FallbackChunks)
	l["go.gc_cycles_per_sim_ms"] = p.gcCycles / ms
	if ctl != nil {
		applied, errs := ctl.RoutesApplied(), ctl.Errors()
		l["ctrl.routes_per_sim_ms"] = float64(applied) / ms
		l["ctrl.errors"] = float64(len(errs))
		if applied > 0 {
			l["lookup4.cells_per_update"] = float64(ctl.CellsTouched()) / float64(applied)
		}
		if len(errs) > 0 {
			p.err = fmt.Errorf("%d control commands failed, first: %s", len(errs), errs[0])
		} else if int(applied) != ri.routes {
			p.err = fmt.Errorf("%d routes applied, script has %d", applied, ri.routes)
		}
	}
	if tr != nil {
		w.attribute(p, tr, pkts)
	}
}

// arm attaches the control script, if the workload has one.
func (ri *routerInst) arm() (*ctrl.Controller, error) {
	if ri.attach == nil {
		return nil, nil
	}
	return ri.attach()
}

// attribute turns the tracer's totals for the pass just ended into the
// in-situ per-layer metrics. The window's own self time — everything no
// decorator sees: sim, hw/*, pktio, core — is the residual.
func (w *workload) attribute(p *pass, tr *tracer, pkts float64) {
	l := p.layer
	fill := tr.total(kindFill)
	pre, post := tr.total(kindPreShade), tr.total(kindPostShade)
	kernel := tr.total(kindKernel) + tr.total(kindCPUWork)
	apply := tr.total(kindApply)
	residual := p.windowNs - fill - pre - post - kernel - apply
	p.kindNs = [numKinds]float64{kindWindow: residual, kindFill: fill, kindPreShade: pre,
		kindKernel: kernel, kindPostShade: post, kindApply: apply}
	p.pkts = pkts
	share := func(ns float64) float64 { return 100 * ns / p.windowNs }
	per := func(ns float64, k spanKind) float64 {
		if u := tr.totals[k].units; u > 0 {
			return ns / float64(u)
		}
		return 0
	}
	if c := tr.totals[kindFill].calls; c > 0 {
		l["pktgen.fill_ns"] = fill / float64(c)
	}
	l["pktgen.fill_share_pct"] = share(fill)
	l["apps.preshade_ns"] = per(pre, kindPreShade)
	l["apps.postshade_ns"] = per(post, kindPostShade)
	if u := tr.totals[kindKernel].units + tr.totals[kindCPUWork].units; u > 0 {
		l["apps.kernel_ns"] = kernel / float64(u)
	}
	l["apps.share_pct"] = share(pre + post + kernel)
	if w.cipher && tr.bytes > 0 {
		l["ipsec.encap_ns_per_byte"] = kernel / float64(tr.bytes)
	}
	l["ctrl.apply_ns"] = per(apply, kindApply)
	l["ctrl.apply_share_pct"] = share(apply)
	if pkts > 0 {
		l["core.residual_ns"] = residual / pkts
	}
	l["core.residual_share_pct"] = share(residual)
}

func (w *workload) fabricPass(p *pass, seed int64, tr *tracer, passNo int) {
	cfg := w.fabric(seed)
	// RunFabric builds, runs and tears down in one call, so set-up is
	// timed as a run that ends after the first link latency.
	short := cfg
	short.Horizon = cfg.LinkLatency
	t0 := time.Now()
	if _, err := cluster.RunFabric(short); err != nil {
		p.err = err
		return
	}
	p.setupNs = float64(time.Since(t0).Nanoseconds())

	var res cluster.FabricResult
	var err error
	p.window(tr, passNo, nil, func() { res, err = cluster.RunFabric(cfg) })
	if err != nil {
		p.err = err
		return
	}
	p.fabric = res
	p.sliceNs = []float64{p.windowNs}
	p.gbps, p.latencyUs = res.DeliveredGbps, res.MeanLatency.Microseconds()
	l := p.layer
	if res.Batches > 0 {
		l["cluster.batch_ns"] = p.windowNs / float64(res.Batches)
		l["cluster.forwards_per_batch"] = float64(res.Forwards) / float64(res.Batches)
		l["cluster.delivered_pct"] = 100 * float64(res.Delivered) / float64(res.Batches)
	}
	l["cluster.route_drops"] = float64(res.RouteDrops)
	l["cluster.node_drops"] = float64(res.NodeDrops)
	l["go.gc_cycles_per_sim_ms"] = p.gcCycles / (float64(w.window) / float64(sim.Millisecond))
	l["core.residual_share_pct"] = 100 // no decorated interface on this path: the window is all self time
}

// paperFigure is the simulated figure the paper's number is compared with.
func (p *pass) paperFigure(w *workload) float64 {
	if w.paperInput {
		return p.inputGbps
	}
	return p.gbps
}
