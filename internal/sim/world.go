package sim

import (
	"fmt"
	"math/bits"
	"sync"
)

// World couples several independent environments (partitions) into one
// simulation that can advance them concurrently on host goroutines while
// producing output byte-identical to running them serially.
//
// The protocol is classic conservative (Chandy–Misra time-window)
// parallelism. Partitions interact only through Links, each carrying a
// strictly positive latency; the minimum link latency is the world's
// lookahead W. World.Run advances all partitions in windows of width W:
// an event executed at time t inside a window can influence another
// partition no earlier than t+W, which lies beyond the window's end, so
// within a window every partition's event loop is causally independent
// and may run on its own goroutine. At the window barrier, messages sent
// during the window are delivered serially — links in creation order,
// messages in send order — by scheduling arrival events into the
// destination environments. Each destination assigns those events its own
// (at, seq) order at that deterministic insertion point, so the next
// window executes them exactly as a serial run would: the worker count
// changes only which host goroutine drives a partition, never the event
// order within one.
type World struct {
	parts     []*Partition
	links     []flusher
	lookahead Duration // min link latency (0 until the first link exists)
	running   bool
	closed    bool

	dirty []uint64 // per-window scratch: one bit per link, by creation index

	stats   WorldStats // windows and barriers (Stats adds the partitions')
	lastEnd Time       // the latest window's end (-1 before the first)

	// flushAll disables dirty-link tracking so every window barrier
	// flushes every link, as the pre-tracking implementation did. The
	// two schedules are byte-for-byte identical (the dirty bitmap is
	// walked in link creation order, and a clean link's flush is a
	// no-op); the flag exists so tests can assert exactly that.
	flushAll bool
}

// Partition is one member environment of a World. Its processes must
// touch only state owned by the partition; the only way to affect another
// partition is Link.Send. Partitions run on separate goroutines within
// a window, so state shared any other way is a data race, and the race
// detector reports it (DESIGN.md, determinism contract rule 7).
type Partition struct {
	world *World
	name  string
	env   *Env

	// dirty lists the creation indexes of this partition's outgoing
	// links that have buffered sends in the current window, in
	// first-send order. Only processes of this partition append
	// (Link.Send runs in the source partition), so the list needs no
	// synchronization; the barrier folds it into the world's bitmap and
	// clears it.
	dirty []int

	events uint64 // the env's dispatched events at the latest barrier
}

// flusher is the untyped view of Link[T] used by the window barrier.
type flusher interface {
	flush()
}

// NewWorld returns an empty world.
func NewWorld() *World { return &World{lastEnd: -1} }

// NewPartition adds a partition with a fresh environment (clock at zero).
func (w *World) NewPartition(name string) *Partition {
	if w.running {
		panic("sim: NewPartition during World.Run")
	}
	if w.closed {
		panic("sim: NewPartition on closed World")
	}
	pt := &Partition{world: w, name: name, env: NewEnv()}
	w.parts = append(w.parts, pt)
	return pt
}

// Env returns the partition's environment.
func (pt *Partition) Env() *Env { return pt.env }

// Name returns the name given at NewPartition time.
func (pt *Partition) Name() string { return pt.name }

// Partitions returns the world's partitions in creation order.
func (w *World) Partitions() []*Partition { return w.parts }

// Lookahead returns the minimum link latency, the window width used by
// Run (0 if the world has no links yet, in which case Run uses a single
// window: unlinked partitions never interact).
func (w *World) Lookahead() Duration { return w.lookahead }

// linkItem is one in-flight message: its arrival time and payload.
type linkItem[T any] struct {
	at Time
	v  T
}

// Link is a unidirectional cross-partition channel with latency. A
// message sent at time t becomes visible to the destination partition at
// t+latency, by TryPut into dst at that instant. The latency is the
// propagation delay of the modeled wire and, crucially, the lookahead
// that makes conservative parallelism sound — which is why zero-latency
// links are rejected at construction.
type Link[T any] struct {
	from, to *Partition
	latency  Duration
	dst      *Queue[T]
	idx      int // creation index across the world's links
	pending  []linkItem[T]

	// inflight holds flushed messages awaiting delivery, in arrival
	// order (send times are nondecreasing per link, so arrivals are
	// too). One reusable callback (deliver) walks it: each scheduled
	// event delivers every message due at that instant and re-arms at
	// the next arrival, so a window's burst costs one scheduled event
	// per distinct arrival instant instead of one closure per message.
	inflight Ring[linkItem[T]]
	armed    bool
	deliver  func()
	lastSend Time // latest accepted departure time (SendAt monotonicity)

	// Sent counts messages accepted by Send; Dropped counts arrivals
	// rejected because dst was full at delivery time. Both are
	// deterministic. Use an unbounded dst queue for lossless links.
	Sent    uint64
	Dropped uint64
}

// NewLink connects from → to with the given latency, delivering into
// dst, which must belong to to's environment. Latency must be strictly
// positive: a zero-latency link would give the world zero lookahead and
// no window in which partitions can safely run concurrently.
func NewLink[T any](from, to *Partition, latency Duration, dst *Queue[T]) *Link[T] {
	if from == nil || to == nil || from.world != to.world {
		panic("sim: NewLink endpoints must belong to the same World")
	}
	if from == to {
		panic("sim: NewLink endpoints must be distinct partitions")
	}
	if latency <= 0 {
		panic(fmt.Sprintf("sim: NewLink latency must be positive (got %d): zero-latency links leave no lookahead", latency))
	}
	if dst == nil || dst.env != to.env {
		panic("sim: NewLink dst queue must belong to the destination partition")
	}
	w := from.world
	if w.running {
		panic("sim: NewLink during World.Run")
	}
	l := &Link[T]{from: from, to: to, latency: latency, dst: dst, idx: len(w.links)}
	l.deliver = l.deliverDue
	w.links = append(w.links, l)
	if len(w.links) > 64*len(w.dirty) {
		w.dirty = append(w.dirty, 0)
	}
	if w.lookahead == 0 || latency < w.lookahead {
		w.lookahead = latency
	}
	return l
}

// Send transmits v from the calling process, to arrive at the
// destination partition after the link latency. It never blocks; wire
// serialization (bandwidth) should be modeled with a Server in the
// sending partition before calling Send — or computed arithmetically
// and expressed through SendAt.
func (l *Link[T]) Send(p *Proc, v T) { l.SendAt(p, p.Now(), v) }

// SendAt transmits v departing at the future instant depart (arrival is
// depart+latency). It lets a sender that models wire serialization
// arithmetically — "this message finishes serializing at T" — emit the
// message without sleeping until T. Departures on one link must be
// nondecreasing, which keeps the link FIFO and its in-flight buffer in
// arrival order; a send that would reorder the wire panics.
func (l *Link[T]) SendAt(p *Proc, depart Time, v T) {
	if p.env != l.from.env {
		panic("sim: Link.Send from a process outside the source partition")
	}
	if depart < p.Now() {
		panic("sim: Link.SendAt departure in the past")
	}
	if depart < l.lastSend {
		panic("sim: Link.SendAt departures must be nondecreasing (FIFO wire)")
	}
	l.lastSend = depart
	l.Sent++
	if len(l.pending) == 0 {
		l.from.dirty = append(l.from.dirty, l.idx)
	}
	l.pending = append(l.pending, linkItem[T]{at: depart + Time(l.latency), v: v})
}

// flush runs at the window barrier, on the World.Run goroutine, after
// all partitions have joined. Every pending arrival lies strictly
// beyond the window that produced it (send at t ≥ window start, arrival
// t+latency ≥ start+lookahead > window end), so moving it in-flight and
// arming the delivery callback here — before the next window starts —
// delivers it exactly when a serial run would.
func (l *Link[T]) flush() {
	if len(l.pending) == 0 {
		return
	}
	for i := range l.pending {
		l.inflight.PushBack(l.pending[i])
		l.pending[i] = linkItem[T]{}
	}
	l.pending = l.pending[:0]
	if !l.armed {
		l.armed = true
		l.to.env.At(l.inflight.Front().at, l.deliver)
	}
}

// deliverDue runs in the destination environment at an arrival instant:
// it delivers every in-flight message due now (dst assigns them
// consecutive wakeups, preserving send order) and re-arms at the next
// arrival, if any.
func (l *Link[T]) deliverDue() {
	now := l.to.env.Now()
	for l.inflight.Len() > 0 && l.inflight.Front().at == now {
		it := l.inflight.PopFront()
		if !l.dst.TryPut(it.v) {
			l.Dropped++
		}
	}
	if l.inflight.Len() > 0 {
		l.to.env.At(l.inflight.Front().at, l.deliver)
	} else {
		l.armed = false
	}
}

// Run advances every partition to the absolute virtual time until
// (inclusive, like Env.Run), using up to workers host goroutines per
// window. workers == 1 is the serial reference schedule; any workers
// value produces byte-identical results. The horizon must be positive:
// conservative windows cannot detect global termination of an endless
// exchange, so an explicit horizon bounds the run.
func (w *World) Run(until Time, workers int) Time {
	if w.running {
		panic("sim: World.Run re-entered")
	}
	if w.closed {
		panic("sim: World.Run on closed World")
	}
	if until <= 0 {
		panic("sim: World.Run requires a positive horizon")
	}
	if workers < 1 {
		workers = 1
	}
	w.running = true
	defer func() { w.running = false }()
	for {
		// The next window starts at the earliest pending event anywhere,
		// so idle stretches of virtual time cost nothing.
		start, ok := w.nextEventAt()
		if !ok || start > until {
			break
		}
		end := until
		if w.lookahead > 0 {
			// Window [start, start+W) — Env.Run horizons are inclusive,
			// hence the -1. An event exactly at `end` still executes in
			// this window; its sends arrive at ≥ end+1, next window.
			if we := start + Time(w.lookahead) - 1; we < end {
				end = we
			}
		}
		w.advance(end, workers)
		w.countWindow(start)
		w.lastEnd = end
		w.barrier()
	}
	// Settle every clock at the horizon so Now() is uniform afterwards.
	for _, pt := range w.parts {
		pt.env.Run(until)
	}
	w.lastEnd = until
	return until
}

// barrier flushes the window's sends. Only links that actually buffered
// messages are flushed: the per-partition dirty lists set one bit per
// link in a bitmap over the creation indexes — here, serially, so the
// workers never share a word — and the bitmap is walked lowest bit
// first. That is creation order, the order a flush-all pass would visit
// the same links in (a clean link's flush is a no-op), so dirty
// tracking is schedule-invisible. The advance barrier (WaitGroup) has
// already ordered the workers' writes to the dirty lists and pending
// buffers before this read.
func (w *World) barrier() {
	if w.flushAll {
		for _, l := range w.links {
			l.flush()
		}
		for _, pt := range w.parts {
			pt.dirty = pt.dirty[:0]
		}
		return
	}
	for _, pt := range w.parts {
		for _, i := range pt.dirty {
			w.dirty[i>>6] |= 1 << (uint(i) & 63)
		}
		pt.dirty = pt.dirty[:0]
	}
	for wi, word := range w.dirty {
		for ; word != 0; word &= word - 1 {
			w.links[wi<<6|bits.TrailingZeros64(word)].flush()
		}
		w.dirty[wi] = 0
	}
}

// nextEventAt returns the earliest pending event time across partitions.
func (w *World) nextEventAt() (Time, bool) {
	var best Time
	found := false
	for _, pt := range w.parts {
		if t, ok := pt.env.NextEventAt(); ok && (!found || t < best) {
			best, found = t, true
		}
	}
	return best, found
}

// advance runs every partition's event loop up to end: inline for one
// worker, otherwise fanned out. The environments share no state, so any
// assignment of partitions to workers gives the same bytes.
func (w *World) advance(end Time, workers int) {
	if workers > 1 && len(w.parts) > 1 {
		w.fanOut(end, min(workers, len(w.parts)))
		return
	}
	for _, pt := range w.parts {
		pt.env.Run(end)
	}
}

// fanOut runs worker k of n over partitions k, k+n, … — stripes, not
// contiguous blocks, because a leaf–spine fabric numbers its busy
// spines last. The WaitGroup orders the partitions' memory effects
// before barrier reads the links' pending buffers. It is its own
// function so that the goroutines' captures (and the WaitGroup) reach
// the heap only on this path: inside advance they would cost the
// one-worker schedule an allocation per window.
func (w *World) fanOut(end Time, workers int) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for i := k; i < len(w.parts); i += workers {
				w.parts[i].env.Run(end)
			}
		}()
	}
	wg.Wait()
}

// Close terminates all partitions' parked processes (Env.Close) in
// partition order, releasing their goroutines. Idempotent; the world is
// unusable afterwards.
func (w *World) Close() {
	if w.running {
		panic("sim: World.Close during Run")
	}
	if w.closed {
		return
	}
	w.closed = true
	for _, pt := range w.parts {
		pt.env.Close()
	}
}
