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
	// the current launch. Reset (not reallocated) every round. kernels
	// is runKernels, bound once: one closure for the master's lifetime,
	// not one per launch.
	gather  []*Chunk
	kernels func()

	// What step keeps across its waits: where it resumes, the launch in
	// flight, when the gather ended and its thread count, the chunk a
	// fallback or the scatter is at, when that fallback began and when
	// the work ended.
	at       masterAt
	flight   gpu.Flight
	gathered sim.Time
	threads  int
	k        int
	since    sim.Time
	worked   sim.Time
}

// The points at which a master's step resumes.
type masterAt uint8

const (
	mGather   masterAt = iota // wait for a chunk, gather, launch
	mLaunch                   // the launch (or its watchdog stall) is in flight
	mFallback                 // re-dispatch the next chunk on the CPU
	mFellBack                 // that chunk's CPU work is charged
	mScatter                  // return the chunks to their workers
)

// MasterBusy sums, over every master, the virtual time spent so far in
// GPU launches (watchdog stalls included) and CPU fallbacks, a launch
// in progress counted up to now: the masters' busy time.
func (r *Router) MasterBusy() sim.Duration { return r.masterBusy.At(r.Env.Now()) }

// heldOut reports whether the GPU should be bypassed right now: the
// master reads it per launch, and its node's workers per offload
// decision.
func (m *master) heldOut(now sim.Time) bool { return m.gpuOut && now < m.retryAt }

// step runs the master from where its last wake-up left it to its next
// wait, which it arms before it returns: gather the chunks its workers
// queued, shade them on the GPU (or re-dispatch them on the CPU while
// the GPU is held out or after a stall), and scatter them back.
func (m *master) step(p *sim.Proc) {
	r := m.router
	o := r.obs
	track := o.masterTracks[m.node]
	for {
		switch m.at {
		case mGather:
			first, ok := m.inQ.Await(p)
			if !ok {
				return
			}
			m.gather = append(m.gather[:0], first)
			if gatherMax := r.Cfg.GatherMax; gatherMax > 1 {
				// Gather (§5.4): take whatever else is already queued.
				m.gather = m.inQ.DrainAppend(m.gather, gatherMax-1)
			}
			m.gathered = p.Now()
			r.masterBusy.Begin(m.gathered)
			var threads, inB, outB, strB int
			for _, c := range m.gather {
				c.stamps[stampGathered] = m.gathered
				o.gpuWait.ObserveDuration(sim.Duration(m.gathered - c.stamps[stampPreShaded]))
				threads += c.Threads
				inB += c.InBytes
				outB += c.OutBytes
				strB += c.StreamBytes
			}
			o.launchThreads.Observe(int64(threads))
			m.threads = threads
			spec := r.App.Kernel()
			if m.heldOut(p.Now()) {
				// Chunks offloaded before the stall was detected:
				// re-dispatch them on the CPU directly — burning a watchdog
				// per backlog batch would double the backoff without
				// probing anything.
				m.k, m.at = 0, mFallback
				continue
			}
			next, wait := m.dev.StartLaunch(p, &m.flight, spec, GPUWatchdog, r.Cfg.Streams,
				threads, inB, outB, strB, m.kernels)
			if wait {
				m.at = mLaunch
				p.WakeAt(next)
				return
			}
			m.launched(p, track, true)
		case mLaunch:
			next, wait, ok := m.dev.ResumeLaunch(p, &m.flight)
			if wait {
				p.WakeAt(next)
				return
			}
			m.launched(p, track, ok)
		case mFallback:
			// The fallback re-dispatches stalled chunks through the
			// application's CPU path on the master's own core — the
			// in-flight work must not be lost, and the workers' cores
			// are already busy with the bypass traffic. PostShade still
			// runs on the owning worker after the scatter.
			if m.k == len(m.gather) {
				m.scatter(p)
				continue
			}
			m.since, m.at = p.Now(), mFellBack
			p.WakeAfter(model.Cycles(r.App.CPUWork(m.gather[m.k])))
			return
		case mFellBack:
			n := int64(len(m.gather[m.k].Bufs))
			o.tr.SpanUntil(track, "cpu-fallback", m.since, p.Now(), obs.Arg{Key: "packets", Val: n})
			o.fallbackChunk.Observe(n)
			r.Stats.FallbackChunks++
			r.Stats.ChunksCPU++
			m.k++
			m.at = mFallback
		case mScatter:
			// Scatter (§5.4): results go to each chunk's own worker
			// output queue, avoiding 1-to-N sharing.
			for ; m.k < len(m.gather); m.k++ {
				c := m.gather[m.k]
				c.stamps[stampWorked] = m.worked
				if !r.workers[c.Worker].outQ.Offer(p, c) {
					return // the queue is full
				}
			}
			m.at = mGather
		}
	}
}

// runKernels is a launch's functional work: the application's kernels
// over the gathered chunks.
func (m *master) runKernels() {
	for _, c := range m.gather {
		m.router.App.RunKernel(c)
	}
}

// launched goes on from a launch that completed (ok) or stalled.
func (m *master) launched(p *sim.Proc, track obs.TrackID, ok bool) {
	r := m.router
	if !ok {
		m.stall(p, track)
		m.k, m.at = 0, mFallback
		return
	}
	r.obs.tr.SpanUntil(track, "gpu-launch", m.gathered, p.Now(),
		obs.Arg{Key: "threads", Val: int64(m.threads)},
		obs.Arg{Key: "chunks", Val: int64(len(m.gather))})
	r.Stats.GPULaunches++
	r.Stats.ChunksGPU += uint64(len(m.gather))
	if m.gpuOut {
		m.recoverGPU(p, track)
	}
	m.scatter(p)
}

// scatter ends the master's work on the gathered chunks and starts
// returning them.
func (m *master) scatter(p *sim.Proc) {
	m.worked = p.Now()
	m.router.masterBusy.End(m.gathered, m.worked)
	m.k, m.at = 0, mScatter
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
		m.backoff = GPUBackoff
	} else {
		m.backoff = min(2*m.backoff, GPUBackoffMax)
	}
	m.retryAt = p.Now() + sim.Time(m.backoff)
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
}
