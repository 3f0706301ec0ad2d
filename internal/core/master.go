package core

import (
	"packetshader/internal/hw/gpu"
	"packetshader/internal/model"
	"packetshader/internal/obs"
	"packetshader/internal/sim"
)

// master is the per-node GPU proxy thread (§5.1): workers never touch
// the device; the master gathers their chunks, drives the GPU, and
// scatters results back. The master deliberately does not read the
// chunk payloads (§5.3: avoiding cache migration) — it only initiates
// DMA, which the gpu.Device models.
//
// The master is also the recovery point for GPU faults: a launch that
// hits the watchdog marks the device held-out, the stalled chunks are
// re-dispatched through the application's CPU path, and workers stop
// offloading until an exponential backoff expires. The first offload
// after that is the probe; it either succeeds (ending the outage) or
// stalls again and doubles the backoff.
type master struct {
	router *Router
	node   int
	dev    *gpu.Device
	inQ    *sim.Queue[*Chunk]
	mail   *sim.Queue[ctlMsg] // control mailbox: knob changes

	// gatherMax is the master's private copy of the one runtime-tunable
	// knob it consults per launch, written solely by drainMail
	// (mailbox.go).
	gatherMax int

	// gpuOut marks the device held out after a watchdog stall; retryAt
	// is when the next probe may be offloaded; backoff is the current
	// hold-out length (doubling per failed probe up to the cap).
	gpuOut  bool
	retryAt sim.Time
	backoff sim.Duration
	// outSince is when the current outage was detected; degraded
	// accumulates closed outage intervals.
	outSince sim.Time
	degraded sim.Duration

	// gather is the reusable §5.4 gather buffer: the set of chunks in
	// the current launch. Reset (not reallocated) every round.
	gather []*Chunk
}

// heldOut reports whether the master itself should bypass the GPU right
// now (the workers decide from their queue-fed copy; see
// worker.gpuHeldOut).
func (m *master) heldOut(now sim.Time) bool { return m.gpuOut && now < m.retryAt }

// publishStatus posts the current hold-out state to the mailbox of
// every worker on this master's node, in worker-index order, on every
// transition (stall and recovery). Workers keep their own copy, so the
// master↔worker hand-off flows through an explicit sim.Queue — a
// scheduler-visible lookahead boundary — instead of workers reading the
// master's fields directly. The mailboxes are unbounded so TryPut
// cannot fail.
func (m *master) publishStatus() {
	st := ctlMsg{kind: ctlHoldOut, on: m.gpuOut, retryAt: m.retryAt}
	for _, w := range m.router.workers {
		if w.node == m.node {
			w.mail.TryPut(st)
		}
	}
}

func (m *master) run(p *sim.Proc) {
	r := m.router
	o := r.obs
	track := o.masterTracks[m.node]
	// fn is hoisted out of the loop (one closure for the master's
	// lifetime, not one per launch); it runs the kernels over the
	// current gather set.
	fn := func() {
		for _, c := range m.gather {
			r.App.RunKernel(c)
		}
	}
	for {
		first := m.inQ.Get(p)
		m.drainMail()
		m.gather = append(m.gather[:0], first)
		if m.gatherMax > 1 {
			// Gather (§5.4): take whatever else is already queued.
			m.gather = m.inQ.DrainAppend(m.gather, m.gatherMax-1)
		}
		chunks := m.gather
		gathered := p.Now()
		var threads, inB, outB, strB int
		for _, c := range chunks {
			o.gpuWait.ObserveDuration(sim.Duration(gathered - c.enqueued))
			threads += c.Threads
			inB += c.InBytes
			outB += c.OutBytes
			strB += c.StreamBytes
		}
		o.launchThreads.Observe(int64(threads))
		spec := r.App.Kernel()
		if m.heldOut(p.Now()) {
			// Chunks offloaded just before the stall was detected (or
			// raced past the workers' held-out check): re-dispatch them
			// on the CPU directly — burning a watchdog per backlog
			// batch would double the backoff without probing anything.
			m.fallback(p, track, chunks)
		} else if m.dev.LaunchChecked(p, spec, r.Cfg.GPUWatchdog, r.Cfg.Streams,
			threads, inB, outB, strB, fn) {
			o.tr.SpanUntil(track, "gpu-launch", gathered, p.Now(),
				obs.Arg{Key: "threads", Val: int64(threads)},
				obs.Arg{Key: "chunks", Val: int64(len(chunks))})
			r.Stats.GPULaunches++
			r.Stats.ChunksGPU += uint64(len(chunks))
			if m.gpuOut {
				m.recoverGPU(p, track)
			}
		} else {
			m.stall(p, track)
			m.fallback(p, track, chunks)
		}
		// Scatter (§5.4): results go to each chunk's own worker output
		// queue, avoiding 1-to-N sharing.
		for _, c := range chunks {
			m.router.workers[c.Worker].outQ.Put(p, c)
		}
	}
}

// stall records a watchdog-detected launch failure and schedules the
// next probe with exponential backoff on the virtual clock.
func (m *master) stall(p *sim.Proc, track obs.TrackID) {
	r := m.router
	r.Stats.GPUStalls++
	r.obs.tr.Instant(track, "gpu-stall", p.Now(),
		obs.Arg{Key: "node", Val: int64(m.node)})
	if !m.gpuOut {
		m.gpuOut = true
		m.outSince = p.Now()
		m.backoff = r.Cfg.GPUBackoff
	} else if m.backoff < r.Cfg.GPUBackoffMax {
		m.backoff *= 2
		if m.backoff > r.Cfg.GPUBackoffMax {
			m.backoff = r.Cfg.GPUBackoffMax
		}
	}
	m.retryAt = p.Now() + sim.Time(m.backoff)
	m.publishStatus()
}

// recoverGPU closes the outage after a successful probe launch.
func (m *master) recoverGPU(p *sim.Proc, track obs.TrackID) {
	now := p.Now()
	m.router.obs.tr.SpanUntil(track, "gpu-heldout", m.outSince, now,
		obs.Arg{Key: "node", Val: int64(m.node)})
	m.degraded += sim.Duration(now - m.outSince)
	m.gpuOut = false
	m.retryAt = 0
	m.backoff = 0
	m.publishStatus()
}

// fallback re-dispatches stalled chunks through the application's CPU
// path on the master's own core — the in-flight work must not be lost,
// and the workers' cores are already busy with the bypass traffic.
// PostShade still runs on the owning worker after the scatter.
func (m *master) fallback(p *sim.Proc, track obs.TrackID, chunks []*Chunk) {
	r := m.router
	o := r.obs
	for _, c := range chunks {
		start := p.Now()
		p.Sleep(simCycles(r.App.CPUWork(c)))
		o.tr.SpanUntil(track, "cpu-fallback", start, p.Now(),
			obs.Arg{Key: "packets", Val: int64(len(c.Bufs))})
		o.fallbackChunk.Observe(int64(len(c.Bufs)))
		r.Stats.FallbackChunks++
		r.Stats.ChunksCPU++
	}
}

func simCycles(c float64) sim.Duration { return model.Cycles(c) }
