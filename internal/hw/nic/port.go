package nic

import (
	"math"
	"strconv"

	"packetshader/internal/hw/pcie"
	"packetshader/internal/model"
	"packetshader/internal/packet"
	"packetshader/internal/sim"
)

// FrameSource synthesizes the frames a queue receives. Implementations
// live in internal/pktgen; the NIC materializes Bufs lazily so that
// multi-10G rates do not require one simulator event per packet.
type FrameSource interface {
	// Fill writes the frame for the seq-th packet of the given
	// port/queue into b (Data arrives sized to the offered packet size;
	// a source whose frame differs sizes it with b.Reset) and sets
	// b.Hash.
	Fill(b *packet.Buf, port, queue int, seq uint64)
}

// BatchSource is an optional extension of FrameSource: a source that
// can fill a whole fetch in one call, so it may overlap the cache
// misses of independent packets instead of taking them one at a time
// (the paper's §4.3 batching, applied to the generator). FillBatch must
// leave every Buf exactly as Fill(bufs[i], port, queue, seq+i) would.
type BatchSource interface {
	FrameSource
	FillBatch(bufs []*packet.Buf, port, queue int, seq uint64)
}

// RxQueue is one RSS receive queue of a port, modelled as a fluid
// arrival process into a bounded descriptor ring. Packets become
// concrete Bufs only when fetched.
type RxQueue struct {
	Port, ID int

	env  *sim.Env
	cap  int
	pool *packet.BufPool

	rate    float64 // offered packets/s for this queue
	pktSize int
	src     FrameSource
	// batch is src's BatchSource side, or nil: detected once in
	// SetOffered, so a decorator that implements only FrameSource keeps
	// the per-packet calls it counts.
	batch BatchSource
	// spacing memoizes DurationFromSeconds(1/rate): Fetch needs it per
	// call and the rate only changes in SetOffered.
	spacing sim.Duration

	lastUpd sim.Time
	occ     float64 // packets waiting (fractional accumulation)
	// dropAcc carries the fractional part of overflowed packets between
	// updates so Stats.Dropped counts whole packets exactly: truncating
	// each sub-packet overflow would lose it forever under fine-grained
	// update steps.
	dropAcc float64
	fetched uint64 // sequence number of next packet to materialize

	// carrierDown models link loss (fault injection): while down the
	// peer sees no carrier either, so nothing arrives — the fluid
	// process accrues neither packets nor drops.
	carrierDown bool
	// burstUntil, when ahead of lastUpd, marks an RX drop burst: frames
	// arriving before it are discarded at the ring (counted in
	// Stats.Dropped) instead of accumulating.
	burstUntil sim.Time

	// dmaPath lists the IOHs the RX DMA crosses (one for local
	// placement; both when NUMA-blind placement crosses nodes, §4.5).
	dmaPath []*pcie.IOH
	// dmaDone is when the latest fetch's RX DMA completes: the NIC DMAs
	// asynchronously while the CPU processes recent packets, so a fetch
	// only stalls when the in-flight DMA falls behind the prefetch
	// pipeline depth (i.e. the IOH is the bottleneck). dmaBatches and
	// dmaCompleted track batch completions for exact RX throughput
	// accounting; the ring reuses one backing array for the lifetime of
	// the queue (a plain slice re-sliced forward reallocates every
	// refill).
	dmaDone      sim.Time
	dmaBatches   sim.Ring[rxDMABatch]
	dmaCompleted uint64

	// Stats are the per-queue counters of §4.4.
	Stats QueueStats

	// Moderation is the NIC interrupt-moderation delay applied when a
	// blocked reader is woken (§6.4).
	Moderation sim.Duration
}

// QueueStats are per-queue counters (per-queue rather than per-NIC to
// avoid the shared-counter cache bouncing of §4.4).
type QueueStats struct {
	Packets uint64
	Bytes   uint64
	Dropped uint64
}

// NewRxQueue creates a queue with the given descriptor-ring capacity.
func NewRxQueue(env *sim.Env, port, id, ringCap int, pool *packet.BufPool, dmaPath []*pcie.IOH) *RxQueue {
	return &RxQueue{
		Port: port, ID: id, env: env, cap: ringCap, pool: pool,
		dmaPath:    dmaPath,
		Moderation: sim.Duration(model.InterruptModerationNs * float64(sim.Nanosecond)),
	}
}

// SetOffered sets the queue's offered load: rate packets/s of pktSize-
// byte frames drawn from src.
func (q *RxQueue) SetOffered(rate float64, pktSize int, src FrameSource) {
	q.update()
	q.rate = rate
	q.pktSize = pktSize
	q.src = src
	q.batch, _ = src.(BatchSource)
	q.spacing = 0
	if rate > 0 {
		q.spacing = sim.DurationFromSeconds(1 / rate)
	}
}

// SetDMAPath replaces the DMA path (placement-policy ablations).
func (q *RxQueue) SetDMAPath(path []*pcie.IOH) { q.dmaPath = path }

// SetCarrier raises or drops the queue's carrier. The fluid process is
// advanced first so the transition splits the integration window at the
// exact event time, keeping the arrival count independent of when the
// next reader happens to poll.
func (q *RxQueue) SetCarrier(up bool) {
	q.update()
	q.carrierDown = !up
}

// DropBurst discards everything the queue receives for the next d of
// virtual time (an injected ring-corruption/driver-pause burst). Counted
// in Stats.Dropped. Overlapping bursts extend, not stack.
func (q *RxQueue) DropBurst(d sim.Duration) {
	q.update()
	if until := q.env.Now() + sim.Time(d); until > q.burstUntil {
		q.burstUntil = until
	}
}

// update advances the fluid arrival process to now, dropping overflow.
func (q *RxQueue) update() {
	now := q.env.Now()
	if now <= q.lastUpd {
		return
	}
	if q.carrierDown {
		q.lastUpd = now
		return
	}
	dt := sim.Duration(now - q.lastUpd).Seconds()
	if q.burstUntil > q.lastUpd {
		// The window's prefix up to burstUntil is inside a drop burst:
		// those arrivals go straight to Dropped (via dropAcc, so whole
		// packets are counted exactly across burst edges).
		end := now
		if q.burstUntil < end {
			end = q.burstUntil
		}
		burstDt := sim.Duration(end - q.lastUpd).Seconds()
		q.dropAcc += q.rate * burstDt
		if whole := math.Floor(q.dropAcc); whole > 0 {
			q.Stats.Dropped += uint64(whole)
			q.dropAcc -= whole
		}
		dt -= burstDt
	}
	q.lastUpd = now
	arrived := q.rate * dt
	q.occ += arrived
	if q.occ > float64(q.cap) {
		q.dropAcc += q.occ - float64(q.cap)
		q.occ = float64(q.cap)
		if whole := math.Floor(q.dropAcc); whole > 0 {
			q.Stats.Dropped += uint64(whole)
			q.dropAcc -= whole
		}
	}
}

// Available returns how many whole packets are waiting right now.
func (q *RxQueue) Available() int {
	q.update()
	return int(q.occ)
}

// Fetch materializes up to max waiting packets, blocking p for the RX
// DMA they consumed on the queue's IOH path. Packets carry GenAt
// timestamps reconstructed from the fluid arrival spacing. Returns nil
// if nothing is waiting.
func (q *RxQueue) Fetch(p *sim.Proc, max int, out []*packet.Buf) []*packet.Buf {
	// Wait until the previous batch's DMA is within the prefetch
	// pipeline depth: DMA overlaps CPU work on recent packets, but the
	// CPU cannot run unboundedly ahead of a saturated IOH.
	if edge := q.dmaDone - sim.Time(model.RxDMAPipelineNs*float64(sim.Nanosecond)); edge > q.env.Now() {
		p.SleepUntil(edge)
	}
	q.reapDMA()
	q.update()
	n := int(q.occ)
	if n > max {
		n = max
	}
	if n <= 0 {
		return out
	}
	now := q.env.Now()
	spacing := q.spacing
	first := len(out)
	for i := 0; i < n; i++ {
		b := q.pool.Get(q.pktSize)
		b.Port = q.Port
		b.Queue = q.ID
		// The i-th oldest of the occ waiting packets arrived about
		// (occ-1-i)×spacing ago.
		age := sim.Duration(q.occ-1-float64(i)) * spacing
		if age < 0 {
			age = 0
		}
		b.GenAt = now - sim.Time(age)
		out = append(out, b)
	}
	switch {
	case q.batch != nil:
		q.batch.FillBatch(out[first:], q.Port, q.ID, q.fetched)
	case q.src != nil:
		for i, b := range out[first:] {
			q.src.Fill(b, q.Port, q.ID, q.fetched+uint64(i))
		}
	}
	q.occ -= float64(n)
	q.fetched += uint64(n)
	q.Stats.Packets += uint64(n)
	q.Stats.Bytes += uint64(n * q.pktSize)
	// RX DMA: descriptors + frame data cross the IOH(s) to reach host
	// memory. The charge is scheduled now and gates the *next* fetch —
	// the IOH is the resource whose saturation caps RX throughput
	// (§3.2, §4.6), but DMA overlaps CPU work on the current batch.
	bytes := n * (q.pktSize + model.DMADescBytes)
	for _, ioh := range q.dmaPath {
		if t := ioh.ScheduleUp(bytes); t > q.dmaDone {
			q.dmaDone = t
		}
	}
	q.dmaBatches.PushBack(rxDMABatch{done: q.dmaDone, pkts: uint64(n)})
	return out
}

type rxDMABatch struct {
	done sim.Time
	pkts uint64
}

func (q *RxQueue) reapDMA() {
	now := q.env.Now()
	for q.dmaBatches.Len() > 0 && q.dmaBatches.Front().done <= now {
		q.dmaCompleted += q.dmaBatches.PopFront().pkts
	}
}

// CompletedDMA returns how many fetched packets have fully crossed the
// IOH into host memory — the exact RX throughput measure (fetched
// packets whose DMA is still in flight are excluded).
func (q *RxQueue) CompletedDMA() uint64 {
	q.reapDMA()
	return q.dmaCompleted
}

// TimeToPacket returns how long until at least one whole packet is
// available (0 if one already is). ok is false when the queue is empty
// and has no offered load (it would never produce a packet).
func (q *RxQueue) TimeToPacket() (d sim.Duration, ok bool) {
	q.update()
	if q.occ >= 1 {
		return 0, true
	}
	if q.rate <= 0 {
		return 0, false
	}
	if q.carrierDown {
		// Link down but load is configured: the carrier may come back
		// (fault injection), so the reader must keep polling rather
		// than retire. One moderation interval is the poll cadence.
		return q.Moderation, true
	}
	return sim.DurationFromSeconds((1 - q.occ) / q.rate), true
}

// WaitForPackets blocks p until the queue has at least one packet,
// modelling the interrupt-enabled idle state of §5.2 (plus interrupt
// moderation latency). Returns false if the queue has no offered load
// (would block forever).
func (q *RxQueue) WaitForPackets(p *sim.Proc) bool {
	q.update()
	if q.occ >= 1 {
		return true
	}
	if q.rate <= 0 {
		return false
	}
	if q.carrierDown {
		// No arrivals while the link is down; sleep one moderation
		// interval and report alive so the caller re-polls.
		p.Sleep(q.Moderation)
		q.update()
		return true
	}
	// Time until the next whole packet accumulates, plus moderation.
	need := 1 - q.occ
	wait := sim.DurationFromSeconds(need/q.rate) + q.Moderation
	p.Sleep(wait)
	q.update()
	return true
}

// TxPort serializes transmissions of one 10GbE port at line rate; the
// TX DMA to the NIC crosses the port's IOH first.
type TxPort struct {
	env *sim.Env

	wire    *sim.Server
	dmaPath []*pcie.IOH
	ringCap int

	// Stats counts completed transmissions; Dropped counts packets
	// discarded because the TX ring was full (output overload) or
	// because the carrier was down.
	Stats QueueStats
	// carrierDown models link loss on the TX side: frames handed to a
	// carrier-down port are dropped immediately (the driver cannot post
	// them), without blocking the worker.
	carrierDown bool
	// CarrierDrops counts the Dropped subset attributable to carrier
	// loss, so fault accounting separates it from ring overflow.
	CarrierDrops uint64

	// completions tracks scheduled batches (completion time of the
	// batch's last packet, cumulative wire time, descriptor count) so
	// Delivered can report exactly the wire time finished by "now" and
	// pending can track true ring occupancy. A ring, so steady-state
	// transmission reuses one backing array.
	completions   sim.Ring[completion]
	deliveredWire sim.Duration
	// pending counts descriptors posted and not yet wire-completed.
	pending int

	// OnComplete, if set, observes each packet at wire-transmission
	// completion (the generator's sink uses it for RTT measurement).
	// The callback must not block; the Buf is released afterwards.
	OnComplete func(b *packet.Buf, at sim.Time)
}

// NewTxPort creates the TX side of a port.
func NewTxPort(env *sim.Env, id, ringCap int, dmaPath []*pcie.IOH) *TxPort {
	return &TxPort{
		env:     env,
		wire:    sim.NewServer(env, "tx"+strconv.Itoa(id)+"-wire"),
		dmaPath: dmaPath,
		ringCap: ringCap,
	}
}

type completion struct {
	done sim.Time
	wire sim.Duration
	pkts int
}

// SetCarrier raises or drops the port's TX carrier.
func (t *TxPort) SetCarrier(up bool) { t.carrierDown = !up }

// CarrierUp reports the TX link state.
func (t *TxPort) CarrierUp() bool { return !t.carrierDown }

// Transmit queues bufs for transmission. Packets that do not fit the TX
// ring (backlog measured in wire time) are dropped, as a real NIC's full
// descriptor ring forces the driver to do. The caller does not block;
// DMA and serialization proceed in virtual time.
func (t *TxPort) Transmit(bufs []*packet.Buf) {
	if len(bufs) == 0 {
		return
	}
	if t.carrierDown {
		t.Stats.Dropped += uint64(len(bufs))
		t.CarrierDrops += uint64(len(bufs))
		for _, b := range bufs {
			b.Release()
		}
		return
	}
	t.reap()
	var batchWire sim.Duration
	var batchDone sim.Time
	var batchPkts int
	for _, b := range bufs {
		// Ring occupancy check: descriptors posted but not yet
		// transmitted.
		if t.pending >= t.ringCap {
			t.Stats.Dropped++
			b.Release()
			continue
		}
		wt := model.WireTime(b.Size())
		var dmaDone sim.Time
		for _, ioh := range t.dmaPath {
			if d := ioh.ScheduleDown(b.Size() + model.DMADescBytes); d > dmaDone {
				dmaDone = d
			}
		}
		done := t.wire.ScheduleAt(dmaDone, wt)
		t.Stats.Packets++
		t.Stats.Bytes += uint64(b.Size())
		t.pending++
		batchWire += wt
		batchDone = done
		batchPkts++
		if t.OnComplete != nil {
			t.OnComplete(b, done)
		}
		b.Release()
	}
	if batchPkts > 0 {
		t.completions.PushBack(completion{batchDone, batchWire, batchPkts})
	}
}

// TransmitBlocking is Transmit with driver backpressure: when the TX
// ring is full the calling process blocks until descriptors free up
// instead of dropping (what a user-level forwarder does — §5.2's
// engine checks ring occupancy). This pushes overload back to the RX
// rings, where excess packets are dropped before consuming any IOH
// bandwidth.
func (t *TxPort) TransmitBlocking(p *sim.Proc, bufs []*packet.Buf) {
	if len(bufs) == 0 {
		return
	}
	if t.carrierDown {
		// Carrier loss is not backpressure: the worker must not park on
		// a dead port. Drop and account immediately.
		t.Transmit(bufs)
		return
	}
	t.reap()
	for t.pending+len(bufs) > t.ringCap && t.completions.Len() > 0 {
		next := t.completions.Front().done
		if next <= p.Now() {
			t.reap()
			continue
		}
		p.SleepUntil(next)
		t.reap()
	}
	t.Transmit(bufs)
}

// reap folds finished batches into the delivered tally.
func (t *TxPort) reap() {
	now := t.env.Now()
	for t.completions.Len() > 0 && t.completions.Front().done <= now {
		c := t.completions.PopFront()
		t.deliveredWire += c.wire
		t.pending -= c.pkts
	}
}

// Pending returns the current TX ring occupancy in descriptors.
func (t *TxPort) Pending() int {
	t.reap()
	return t.pending
}

// Delivered returns the cumulative wire time of batches fully
// transmitted by now. Dividing by elapsed time gives the port's
// delivered line utilization — the throughput metric the experiments
// report. (The at-most-one partially transmitted batch per port is not
// counted; over millisecond windows the error is negligible.)
func (t *TxPort) Delivered() sim.Duration {
	t.reap()
	return t.deliveredWire
}
