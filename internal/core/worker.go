package core

import (
	"packetshader/internal/obs"
	"packetshader/internal/packet"
	"packetshader/internal/pktio"
	"packetshader/internal/sim"
)

// worker is one hard-affinitized worker thread (§5.1): it owns a set of
// virtual interfaces (its RX queues), performs pre- and post-shading,
// and exchanges chunks with its node's master.
type worker struct {
	router *Router
	id     int
	node   int
	ifaces []*pktio.Iface
	rr     int // round-robin cursor over ifaces (§5.2: fairness)

	master *master
	outQ   *sim.Queue[*Chunk] // results returned by the master
	mail   *sim.Queue[ctlMsg] // control mailbox: knob changes and hold-out updates

	// chunkCap and opp are the worker's private copies of the two
	// runtime-tunable knobs it consults per chunk; gpuOut/gpuRetryAt
	// mirror the master's hold-out state. Under the cooperative
	// scheduler every transition ordered before a drain has already been
	// posted, so the mirror equals the master's state at each offload
	// decision. All four are written solely by drainMail (mailbox.go).
	chunkCap   int
	opp        bool
	gpuOut     bool
	gpuRetryAt sim.Time

	inflight int

	// txBufs/txOrder are the reusable per-port grouping scratch for the
	// scatter in finish (a per-chunk map would allocate on every chunk).
	// txBufs is indexed by output port; txOrder lists the ports touched
	// by the current chunk in first-appearance order.
	txBufs  [][]*packet.Buf
	txOrder []int
}

func (w *worker) maxInflight() int {
	if !w.router.Cfg.Pipelining {
		return 1
	}
	return maxInFlight
}

func (w *worker) run(p *sim.Proc) {
	gpuMode := w.router.Cfg.Mode == ModeGPU && w.master != nil
	for {
		w.drainMail()
		// 1. Finish any chunks the master has returned.
		for {
			c, ok := w.outQ.TryGet()
			if !ok {
				break
			}
			w.inflight--
			w.finish(p, c)
		}
		// 2. Fetch and process a new chunk if the pipeline has room.
		if !gpuMode || w.inflight < w.maxInflight() {
			if c := w.fetchChunk(p); c != nil {
				o := w.router.obs
				track := o.workerTracks[w.id]
				o.tr.SpanUntil(track, "rx-fetch", c.stamps[stampFetch], c.stamps[stampFetched],
					obs.Arg{Key: "packets", Val: int64(len(c.Bufs))})
				o.chunkSize.Observe(int64(len(c.Bufs)))
				pre := w.router.App.PreShade(c)
				c.Threads = pre.Threads
				c.InBytes = pre.InBytes
				c.OutBytes = pre.OutBytes
				c.StreamBytes = pre.StreamBytes
				p.Sleep(cycles(pre.CPUCycles))
				c.stamps[stampPreShaded] = p.Now()
				o.tr.SpanUntil(track, "pre-shade", c.stamps[stampFetched], p.Now())
				offload := gpuMode && pre.Threads > 0
				if offload && w.opp &&
					len(c.Bufs) <= w.router.Cfg.OppThreshold {
					// §7: light load — keep the work on the CPU for
					// latency.
					offload = false
				}
				if offload && w.gpuHeldOut(p.Now()) {
					// The watchdog has the GPU held out: degrade to the
					// CPU path. The first offload after the backoff
					// expires is the recovery probe.
					offload = false
				}
				if offload {
					w.inflight++
					w.master.inQ.Put(p, c) // blocks when full: backpressure
				} else {
					c.stamps[stampGathered] = p.Now()
					p.Sleep(cycles(w.router.App.CPUWork(c)))
					c.stamps[stampWorked] = p.Now()
					o.tr.SpanUntil(track, "cpu-work", c.stamps[stampGathered], p.Now())
					w.router.Stats.ChunksCPU++
					w.finish(p, c)
				}
				continue
			}
		}
		// 3. Nothing fetched: wait for results or for packets.
		if w.inflight > 0 {
			c := w.outQ.Get(p)
			w.inflight--
			w.finish(p, c)
			continue
		}
		if !w.waitAny(p) {
			return // no offered load anywhere: worker retires
		}
	}
}

// gpuHeldOut drains the mailbox (the master may have posted a hold-out
// update since the loop top), then reports whether the GPU should be
// bypassed right now.
func (w *worker) gpuHeldOut(now sim.Time) bool {
	w.drainMail()
	return w.gpuOut && now < w.gpuRetryAt
}

// fetchChunk builds one chunk by polling the worker's interfaces
// round-robin, starting after the last one served (§5.2 fairness). The
// chunk takes whatever the first non-empty queue has, up to the cap —
// "we do not intentionally wait for the fixed number of packets" (§5.3).
func (w *worker) fetchChunk(p *sim.Proc) *Chunk {
	max := w.chunkCap
	start := p.Now()
	c := w.router.getChunk()
	for i := 0; i < len(w.ifaces); i++ {
		f := w.ifaces[w.rr]
		w.rr = (w.rr + 1) % len(w.ifaces)
		bufs := f.FetchChunk(p, max, c.Bufs[:0])
		if len(bufs) == 0 {
			continue
		}
		c.Bufs = bufs
		// OutPorts is NOT cleared: every App's PreShade writes every slot
		// (part of the App contract, pinned by tests), so recycled chunks
		// cannot leak stale forwarding decisions.
		if n := len(bufs); n <= cap(c.OutPorts) {
			c.OutPorts = c.OutPorts[:n]
		} else {
			c.OutPorts = make([]int, n)
		}
		c.Worker = w.id
		c.stamps[stampFetch], c.stamps[stampFetched] = start, p.Now()
		w.router.Stats.Packets += uint64(len(bufs))
		return c
	}
	w.router.putChunk(c)
	return nil
}

// finish runs post-shading and transmits the chunk, splitting packets
// by destination port (§5.3).
func (w *worker) finish(p *sim.Proc, c *Chunk) {
	o := w.router.obs
	track := o.workerTracks[w.id]
	c.stamps[stampReturned] = p.Now()
	p.Sleep(cycles(w.router.App.PostShade(c)))
	c.stamps[stampPostShaded] = p.Now()
	o.tr.SpanUntil(track, "post-shade", c.stamps[stampReturned], p.Now(),
		obs.Arg{Key: "packets", Val: int64(len(c.Bufs))})
	// Group by output port, preserving FIFO order within the chunk. The
	// grouping scratch (txBufs indexed by port, txOrder listing touched
	// ports) lives on the worker and is reused chunk after chunk.
	order := w.txOrder[:0]
	for i, b := range c.Bufs {
		port := c.OutPorts[i]
		if port < 0 || port >= len(w.router.Engine.Ports) {
			w.router.Stats.Drops++
			b.Release()
			continue
		}
		if len(w.txBufs[port]) == 0 {
			order = append(order, port)
		}
		w.txBufs[port] = append(w.txBufs[port], b)
	}
	for _, port := range order {
		bufs := w.txBufs[port]
		if tx := w.router.Engine.Ports[port].Tx; !tx.CarrierUp() {
			// Carrier down: pause TX to this port — the NIC drops and
			// accounts the packets; the worker spends no send cycles on
			// a dead link.
			tx.Transmit(bufs)
		} else {
			w.router.Engine.Send(p, w.node, port, bufs)
		}
		// Clear the per-port bucket for reuse: drop the *Buf references
		// so recycled packets aren't retained by the scratch.
		for i := range bufs {
			bufs[i] = nil
		}
		w.txBufs[port] = bufs[:0]
	}
	c.stamps[stampTx] = p.Now()
	if len(order) > 0 {
		o.tr.SpanUntil(track, "tx", c.stamps[stampPostShaded], p.Now())
	}
	w.txOrder = order
	o.chunkLatency.ObserveDuration(sim.Duration(p.Now() - c.stamps[stampFetched]))
	w.router.Stages.add(c)
	for i, h := range o.stages {
		h.ObserveDuration(sim.Duration(c.stamps[i+1] - c.stamps[i]))
	}
	if w.router.chunkDone != nil {
		w.router.chunkDone(c)
	}
	w.router.putChunk(c)
}

// waitAny blocks until any of the worker's queues can produce a packet,
// re-enabling interrupts as §5.2 describes. Returns false if no queue
// has offered load.
func (w *worker) waitAny(p *sim.Proc) bool {
	best, ok := sim.Duration(0), false
	for _, f := range w.ifaces {
		if d, alive := f.Queue.TimeToPacket(); alive {
			if !ok || d < best {
				best = d
				ok = true
			}
		}
	}
	if !ok {
		return false
	}
	p.Sleep(best + w.ifaces[0].Queue.Moderation)
	return true
}

func cycles(c float64) sim.Duration {
	if c <= 0 {
		return 0
	}
	return simCycles(c)
}
