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
// and may run on its own goroutine. Windows lie on a fixed grid,
// [kW, (k+1)W). At the window barrier, messages sent in the window
// (Link.Post may send one ahead of its sender's clock) are delivered
// serially — links in creation order, messages in send order — by
// scheduling arrival events into the destination environments. Each
// destination assigns those events its own (at, seq) order at that
// deterministic insertion point, so the next window executes them
// exactly as a serial run would: the worker count changes only which
// host goroutine drives a partition, never the event order within one.
type World struct {
	parts     []*Partition
	links     []flusher
	lookahead Duration // min link latency (0 until the first link exists)
	running   bool
	closed    bool

	dirty []uint64 // one bit per link with pending messages, by creation index

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
// partition is a Link. Partitions run on separate goroutines within
// a window, so state shared any other way is a data race, and the race
// detector reports it (DESIGN.md, determinism contract rule 7).
type Partition struct {
	world *World
	name  string
	env   *Env

	// dirty lists the creation indexes of this partition's outgoing
	// links whose pending buffer became non-empty in the current
	// window. Only this partition appends (Link.Post runs in the source
	// partition), so the list needs no synchronization; the barrier
	// folds it into the world's bitmap and clears it.
	dirty []int

	events uint64 // the env's dispatched events at the latest barrier
}

// flusher is the untyped view of Link[T] used by the window barrier.
type flusher interface {
	flush(end Time) bool
	waiting() (Time, bool)
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

// postItem is one message waiting at the sender: the instant it is
// logically sent, and the message.
type postItem[T any] struct {
	sent Time
	msg  linkItem[T]
}

// Link is a unidirectional cross-partition channel with latency. A
// message departing at t is handed to the link's receiver in the
// destination partition at t+latency. The latency is the propagation
// delay of the modeled wire and, crucially, the lookahead that makes
// conservative parallelism sound — which is why zero-latency links are
// rejected at construction.
type Link[T any] struct {
	from, to *Partition
	latency  Duration
	recv     func(T)
	idx      int // creation index across the world's links

	// pending holds posted messages in post order until the barrier
	// after the window holding their send instant. Only the source
	// partition appends to it, and only the barrier removes from it.
	pending []postItem[T]

	// inflight holds flushed messages awaiting delivery, in arrival
	// order (departures are nondecreasing per link, so arrivals are
	// too). Only the barrier appends to it, and only the destination
	// partition removes from it. One reusable callback (deliver) walks
	// it: each scheduled event delivers every message due at that
	// instant and re-arms at the next arrival, so a window's burst
	// costs one scheduled event per distinct arrival instant instead of
	// one closure per message.
	inflight Ring[linkItem[T]]
	armed    bool
	deliver  func()
	lastSend Time // latest accepted departure time (FIFO wire)

	// Sent counts messages accepted by Post and SendAt; Dropped
	// counts arrivals a NewLink queue rejected because it was full at
	// delivery time. Both are deterministic. Use an unbounded queue for
	// lossless links.
	Sent    uint64
	Dropped uint64
}

// NewLinkFunc connects from → to with the given latency, handing each
// arriving message to recv in to's scheduler context (an At callback of
// to's environment), so recv must not block. Latency must be strictly
// positive: a zero-latency link would give the world zero lookahead and
// no window in which partitions can safely run concurrently.
func NewLinkFunc[T any](from, to *Partition, latency Duration, recv func(T)) *Link[T] {
	if from == nil || to == nil || from.world != to.world {
		panic("sim: NewLink endpoints must belong to the same World")
	}
	if from == to {
		panic("sim: NewLink endpoints must be distinct partitions")
	}
	if latency <= 0 {
		panic(fmt.Sprintf("sim: NewLink latency must be positive (got %d): zero-latency links leave no lookahead", latency))
	}
	if recv == nil {
		panic("sim: NewLinkFunc needs a receiver")
	}
	w := from.world
	if w.running {
		panic("sim: NewLink during World.Run")
	}
	l := &Link[T]{from: from, to: to, latency: latency, recv: recv, idx: len(w.links)}
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

// NewLink is NewLinkFunc delivering into dst, a queue of to's
// environment, by TryPut: an arrival dst has no room for is counted in
// Dropped.
func NewLink[T any](from, to *Partition, latency Duration, dst *Queue[T]) *Link[T] {
	if to != nil && (dst == nil || dst.env != to.env) {
		panic("sim: NewLink dst queue must belong to the destination partition")
	}
	var l *Link[T]
	l = NewLinkFunc(from, to, latency, func(v T) {
		if !dst.TryPut(v) {
			l.Dropped++
		}
	})
	return l
}

// SendAt transmits v from the calling process, departing at the future
// instant depart (arrival is depart+latency): Post(p.Now(), depart, v)
// from a process of the source partition. Its only non-test caller is
// bench/micro.go.
func (l *Link[T]) SendAt(p *Proc, depart Time, v T) {
	if p.env != l.from.env {
		panic("sim: Link.SendAt from a process outside the source partition")
	}
	l.Post(p.Now(), depart, v)
}

// Post transmits v logically sent at the instant sent ≥ now and
// departing at depart ≥ sent, so a sender that computes its own timing
// arithmetically — "this message leaves the forwarding budget at S and
// finishes serializing at D" — emits it without an event at S or D. It
// must be called from the source partition (a process or callback of
// its environment). The message waits at the sender until the barrier
// after the window that holds sent, exactly where a SendAt from sent
// would be flushed, so the destination orders it as it would that one.
// Departures on one link must be nondecreasing, which keeps the link
// FIFO and its in-flight buffer in arrival order; a post that would
// reorder the wire panics.
func (l *Link[T]) Post(sent, depart Time, v T) {
	if sent < l.from.env.now {
		panic("sim: Link.Post sent before now")
	}
	if depart < sent {
		panic("sim: Link.Post departure before its send")
	}
	if depart < l.lastSend {
		panic("sim: Link departures must be nondecreasing (FIFO wire)")
	}
	l.lastSend = depart
	l.Sent++
	if len(l.pending) == 0 {
		l.from.dirty = append(l.from.dirty, l.idx)
	}
	l.pending = append(l.pending, postItem[T]{sent, linkItem[T]{depart + Time(l.latency), v}})
}

// InFlight returns the number of messages sent and not yet delivered:
// those still pending at the sender and those flushed toward the
// destination.
func (l *Link[T]) InFlight() int { return len(l.pending) + l.inflight.Len() }

// flush runs at the window barrier that ends at end, on the World.Run
// goroutine, after all partitions have joined. It moves in-flight every
// pending message sent by end, stopping at the first one sent later (a
// message never overtakes an earlier post), arms the delivery callback,
// and reports whether it moved any. Every message it moves arrives
// strictly beyond its window (sent at t ≥ window start, arrival ≥
// t+latency ≥ start+lookahead > end), so arming here — before the next
// window starts — delivers it exactly when a serial run would.
func (l *Link[T]) flush(end Time) bool {
	n := 0
	for n < len(l.pending) && l.pending[n].sent <= end {
		l.inflight.PushBack(l.pending[n].msg)
		n++
	}
	if n == 0 {
		return false
	}
	rest := copy(l.pending, l.pending[n:])
	clear(l.pending[rest:])
	l.pending = l.pending[:rest]
	if !l.armed {
		l.armed = true
		l.to.env.At(l.inflight.Front().at, l.deliver)
	}
	return true
}

// waiting reports the send instant of the earliest pending message.
func (l *Link[T]) waiting() (Time, bool) {
	if len(l.pending) == 0 {
		return 0, false
	}
	return l.pending[0].sent, true
}

// deliverDue runs in the destination environment at an arrival instant:
// it hands every in-flight message due now to the receiver, in send
// order, and re-arms at the next arrival, if any.
func (l *Link[T]) deliverDue() {
	now := l.to.env.Now()
	for l.inflight.Len() > 0 && l.inflight.Front().at == now {
		l.recv(l.inflight.PopFront().v)
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
		// Windows lie on the grid [kW, (k+1)W): the next one is the
		// grid window holding the earliest pending event anywhere, so
		// idle stretches cost nothing, and which barrier flushes a
		// message depends on the model alone, not on which engine
		// events happen to exist.
		start, ok := w.nextEventAt()
		if !ok || start > until {
			break
		}
		end := until
		if w.lookahead > 0 {
			start -= start % Time(w.lookahead)
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
		w.barrier(end)
	}
	// Settle every clock at the horizon so Now() is uniform afterwards.
	for _, pt := range w.parts {
		pt.env.Run(until)
	}
	w.lastEnd = until
	return until
}

// barrier flushes the messages sent by end. Only links that hold
// pending messages are visited: the per-partition dirty lists set one
// bit per link in a bitmap over the creation indexes — here, serially,
// so the workers never share a word — and the bitmap is walked lowest
// bit first. That is creation order, the order a flush-all pass would
// visit the same links in (a link with nothing due flushes nothing), so
// dirty tracking is schedule-invisible. A link keeps its bit while it
// holds messages posted for a later window. The advance barrier
// (WaitGroup) has already ordered the workers' writes to the dirty
// lists and pending buffers before this read.
func (w *World) barrier(end Time) {
	w.fold()
	if w.flushAll {
		for _, l := range w.links {
			if l.flush(end) {
				w.stats.DirtyLinks++
			}
		}
	}
	for wi, word := range w.dirty {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			l := w.links[wi<<6|b]
			if !w.flushAll && l.flush(end) {
				w.stats.DirtyLinks++
			}
			if _, ok := l.waiting(); !ok {
				w.dirty[wi] &^= 1 << b
			}
		}
	}
}

// fold sets the bits of the links the partitions' dirty lists name and
// clears the lists.
func (w *World) fold() {
	for _, pt := range w.parts {
		for _, i := range pt.dirty {
			w.dirty[i>>6] |= 1 << (uint(i) & 63)
		}
		pt.dirty = pt.dirty[:0]
	}
}

// nextEventAt returns the earliest instant at which anything is pending
// across partitions: an event, or a posted message's send instant (its
// window must run so that its barrier flushes the message).
func (w *World) nextEventAt() (Time, bool) {
	var best Time
	found := false
	for _, pt := range w.parts {
		if t, ok := pt.env.NextEventAt(); ok && (!found || t < best) {
			best, found = t, true
		}
	}
	w.fold()
	for wi, word := range w.dirty {
		for ; word != 0; word &= word - 1 {
			if t, ok := w.links[wi<<6|bits.TrailingZeros64(word)].waiting(); ok && (!found || t < best) {
				best, found = t, true
			}
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
