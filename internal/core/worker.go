package core

import (
	"packetshader/internal/model"
	"packetshader/internal/obs"
	"packetshader/internal/packet"
	"packetshader/internal/pktio"
	"packetshader/internal/sim"
)

// worker is one hard-affinitized worker thread (§5.1): it owns a set of
// virtual interfaces (its RX queues), performs pre- and post-shading,
// and exchanges chunks with its node's master. It runs as a sim task
// (step): a pinned thread never context-switches, and neither does its
// model.
type worker struct {
	router *Router
	id     int
	node   int
	ifaces []*pktio.Iface
	rr     int // round-robin cursor over ifaces (§5.2: fairness)

	master *master
	outQ   *sim.Queue[*Chunk] // results returned by the master

	inflight int

	// txBufs/txOrder are the reusable per-port grouping scratch for the
	// scatter in finish (a per-chunk map would allocate on every chunk).
	// txBufs is indexed by output port; txOrder lists the ports touched
	// by the current chunk in first-appearance order.
	txBufs  [][]*packet.Buf
	txOrder []int

	// What step keeps across its waits: where it resumes, the round's
	// knobs, the chunk in hand and where to go once its finish is over.
	at       workerAt
	after    workerAt
	chunkCap int
	opp      bool
	c        *Chunk
	// The fetch in progress: its start, how many interfaces it has
	// polled and the one it polls. since is when the TX-ring wait in
	// progress began.
	fetchAt sim.Time
	polled  int
	iface   *pktio.Iface
	since   sim.Time
	port    int // the finish's next port, an index into txOrder
}

// The points at which a worker's step resumes: each is where the
// worker waited, or a state it passes through without waiting.
type workerAt uint8

const (
	wRound      workerAt = iota // a round starts: read the knobs
	wDrain                      // finish the chunks the master has returned
	wPoll                       // fetch: poll the next interface
	wPolled                     // fetch: that interface's RX-DMA wait is over
	wFetched                    // fetch: the RX cycles are charged
	wPreShaded                  // pre-shading's cycles are charged
	wOffload                    // put the chunk in the master's input queue
	wWorked                     // the CPU path's cycles are charged
	wIdle                       // nothing fetched: wait for results or packets
	wResult                     // wait for the master to return a chunk
	wPostShaded                 // finish: post-shading's cycles are charged
	wSend                       // finish: send to the next port
	wSent                       // finish: that send's cycles are charged
	wPost                       // finish: post to the port's TX ring, or wait for room
)

// WorkerBusy sums, over every worker, the virtual time spent so far in
// rx-fetch (polls that find no packet included), pre-shade, post-shade
// and tx, the activity in progress counted up to now. It includes the
// waits in the packet I/O engine (pktio.Engine.Blocked).
func (r *Router) WorkerBusy() sim.Duration { return r.workerBusy.At(r.Env.Now()) }

func (w *worker) maxInflight() int {
	if !w.router.Cfg.Pipelining {
		return 1
	}
	return model.MaxInFlightChunks
}

// step runs the worker from where its last wake-up left it to its next
// wait, which it arms before it returns. Each round finishes the chunks
// the master has returned, then, if the pipeline has room, fetches a
// chunk, pre-shades it and offloads it or works it on the CPU; a round
// that fetches nothing waits for a result, or for packets.
func (w *worker) step(p *sim.Proc) {
	r := w.router
	cfg := &r.Cfg
	o := r.obs
	track := o.workerTracks[w.id]
	gpuMode := cfg.Mode == ModeGPU && w.master != nil
	for {
		switch w.at {
		case wRound:
			// The knobs a control command may retune, read once per round:
			// a retune governs every chunk fetched from the next round on.
			w.chunkCap, w.opp = min(cfg.ChunkCap, model.MaxChunkSize), cfg.OpportunisticOffload
			w.at = wDrain
		case wDrain:
			if c, ok := w.outQ.TryGet(); ok {
				w.inflight--
				w.finish(p, c, wDrain)
				return
			}
			w.at = wIdle
			if !gpuMode || w.inflight < w.maxInflight() {
				// Fetch a chunk by polling the interfaces round-robin,
				// starting after the last one served (§5.2 fairness). It
				// takes whatever the first non-empty queue has, up to the
				// cap — "we do not intentionally wait for the fixed number
				// of packets" (§5.3).
				w.fetchAt, w.polled, w.c = p.Now(), 0, r.getChunk()
				r.workerBusy.Begin(w.fetchAt)
				w.at = wPoll
			}
		case wPoll:
			if w.polled == len(w.ifaces) {
				r.putChunk(w.c)
				w.c = nil
				r.workerBusy.End(w.fetchAt, p.Now())
				w.at = wIdle
				continue
			}
			w.iface = w.ifaces[w.rr]
			w.rr = (w.rr + 1) % len(w.ifaces)
			w.polled, w.at = w.polled+1, wPolled
			if edge, wait := w.iface.FetchWait(); wait {
				p.WakeAt(edge)
				return
			}
		case wPolled:
			got, cost := w.iface.FetchNow(w.chunkCap, w.c.Bufs[:0])
			if got == nil {
				w.at = wPoll
				continue
			}
			w.c.Bufs, w.at = got, wFetched
			p.WakeAfter(cost)
			return
		case wFetched:
			c := w.c
			// OutPorts is NOT cleared: every App's PreShade writes every
			// slot (part of the App contract, pinned by tests), so recycled
			// chunks cannot leak stale forwarding decisions.
			if n := len(c.Bufs); n <= cap(c.OutPorts) {
				c.OutPorts = c.OutPorts[:n]
			} else {
				c.OutPorts = make([]int, n)
			}
			c.Worker = w.id
			c.stamps[stampFetch], c.stamps[stampFetched] = w.fetchAt, p.Now()
			r.Stats.Packets += uint64(len(c.Bufs))
			o.tr.SpanUntil(track, "rx-fetch", c.stamps[stampFetch], c.stamps[stampFetched],
				obs.Arg{Key: "packets", Val: int64(len(c.Bufs))})
			o.chunkSize.Observe(int64(len(c.Bufs)))
			pre := r.App.PreShade(c)
			c.Threads = pre.Threads
			c.InBytes = pre.InBytes
			c.OutBytes = pre.OutBytes
			c.StreamBytes = pre.StreamBytes
			w.at = wPreShaded
			p.WakeAfter(cycles(pre.CPUCycles))
			return
		case wPreShaded:
			c := w.c
			c.stamps[stampPreShaded] = p.Now()
			r.workerBusy.End(c.stamps[stampFetch], p.Now())
			o.tr.SpanUntil(track, "pre-shade", c.stamps[stampFetched], p.Now())
			offload := gpuMode && c.Threads > 0
			if offload && w.opp && len(c.Bufs) <= OppThreshold {
				// §7: light load — keep the work on the CPU for latency.
				offload = false
			}
			if offload && w.master.heldOut(p.Now()) {
				// The watchdog has the GPU held out: degrade to the CPU
				// path. The first offload after the backoff expires is
				// the recovery probe.
				offload = false
			}
			if offload {
				w.inflight++
				w.at = wOffload
				continue
			}
			c.stamps[stampGathered] = p.Now()
			w.at = wWorked
			p.WakeAfter(cycles(r.App.CPUWork(c)))
			return
		case wOffload:
			if !w.master.inQ.Offer(p, w.c) {
				return // the queue is full: backpressure
			}
			w.c, w.at = nil, wRound
		case wWorked:
			c := w.c
			c.stamps[stampWorked] = p.Now()
			o.tr.SpanUntil(track, "cpu-work", c.stamps[stampGathered], p.Now())
			r.Stats.ChunksCPU++
			w.finish(p, c, wRound)
			return
		case wIdle:
			if w.inflight > 0 {
				w.at = wResult
				continue
			}
			w.at = wRound
			w.waitAny(p) // arms nothing without offered load: the worker retires
			return
		case wResult:
			c, ok := w.outQ.Await(p)
			if !ok {
				return
			}
			w.inflight--
			w.finish(p, c, wRound)
			return
		case wPostShaded:
			c := w.c
			c.stamps[stampPostShaded] = p.Now()
			o.tr.SpanUntil(track, "post-shade", c.stamps[stampReturned], p.Now(),
				obs.Arg{Key: "packets", Val: int64(len(c.Bufs))})
			// Group by output port, preserving FIFO order within the
			// chunk. The grouping scratch (txBufs indexed by port,
			// txOrder listing touched ports) lives on the worker and is
			// reused chunk after chunk.
			order := w.txOrder[:0]
			for i, b := range c.Bufs {
				port := c.OutPorts[i]
				if port < 0 || port >= len(r.Engine.Ports) {
					r.Stats.Drops++
					b.Release()
					continue
				}
				if len(w.txBufs[port]) == 0 {
					order = append(order, port)
				}
				w.txBufs[port] = append(w.txBufs[port], b)
			}
			w.txOrder, w.port, w.at = order, 0, wSend
		case wSend:
			if w.port == len(w.txOrder) {
				w.finished(p, track)
				w.at = w.after
				continue
			}
			port := w.txOrder[w.port]
			bufs := w.txBufs[port]
			if tx := r.Engine.Ports[port].Tx; !tx.CarrierUp() {
				// Carrier down: pause TX to this port — the NIC drops and
				// accounts the packets; the worker spends no send cycles
				// on a dead link.
				tx.Transmit(bufs)
				w.sent(port)
				continue
			}
			w.at = wSent
			p.WakeAfter(r.Engine.SendCost(w.node, port, len(bufs)))
			return
		case wSent:
			w.since, w.at = p.Now(), wPost
		case wPost:
			port := w.txOrder[w.port]
			if next, wait := r.Engine.Post(port, w.txBufs[port], w.since); wait {
				p.WakeAt(next)
				return
			}
			w.sent(port)
			w.at = wSend
		}
	}
}

// finish starts c's way out: post-shading, then the transmission of
// its packets split by destination port (§5.3); after it the worker
// goes on at after.
func (w *worker) finish(p *sim.Proc, c *Chunk, after workerAt) {
	w.c, w.after = c, after
	c.stamps[stampReturned] = p.Now()
	w.router.workerBusy.Begin(c.stamps[stampReturned])
	w.at = wPostShaded
	p.WakeAfter(cycles(w.router.App.PostShade(c)))
}

// sent clears port's bucket for reuse, dropping the *Buf references so
// recycled packets aren't retained by the scratch.
func (w *worker) sent(port int) {
	bufs := w.txBufs[port]
	for i := range bufs {
		bufs[i] = nil
	}
	w.txBufs[port] = bufs[:0]
	w.port++
}

// finished ends the chunk's trip once every port has its packets.
func (w *worker) finished(p *sim.Proc, track obs.TrackID) {
	c, o := w.c, w.router.obs
	c.stamps[stampTx] = p.Now()
	w.router.workerBusy.End(c.stamps[stampReturned], p.Now())
	if len(w.txOrder) > 0 {
		o.tr.SpanUntil(track, "tx", c.stamps[stampPostShaded], p.Now())
	}
	o.chunkLatency.ObserveDuration(sim.Duration(p.Now() - c.stamps[stampFetched]))
	w.router.Stages.add(c)
	for i, h := range o.stages {
		h.ObserveDuration(sim.Duration(c.stamps[i+1] - c.stamps[i]))
	}
	if w.router.chunkDone != nil {
		w.router.chunkDone(c)
	}
	w.router.putChunk(c)
	w.c = nil
}

// waitAny arms the worker's wake-up for when any of its queues can
// produce a packet, re-enabling interrupts as §5.2 describes. It arms
// nothing if no queue has offered load.
func (w *worker) waitAny(p *sim.Proc) {
	best, ok := sim.Duration(0), false
	for _, f := range w.ifaces {
		if d, alive := f.Queue.TimeToPacket(); alive {
			if !ok || d < best {
				best = d
				ok = true
			}
		}
	}
	if ok {
		p.WakeAfter(best + w.ifaces[0].Queue.Moderation)
	}
}

func cycles(c float64) sim.Duration {
	if c <= 0 {
		return 0
	}
	return model.Cycles(c)
}
