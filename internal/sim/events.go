package sim

// eventHeap is the environment's future-event store: an array-backed
// binary min-heap over (at, seq), holding events by value. seq is
// unique, so the order is total and popMin yields exactly the engine's
// (at, seq) execution order whatever shape the heap is in.
//
// A heap because of what the store holds: an Env's pending population
// peaks at 8 events on the router workloads, 61–65 on the fabrics and
// 87 under route churn, with 7–11 pending at a typical push (DESIGN.md,
// "Event store: a binary heap, and why"), so the whole store is a few
// cache lines and a push or pop is a few compares on them. Sifts move a
// hole instead of swapping, the backing array is reused forever (zero
// steady-state allocations), and popMin zeroes the vacated slot so a
// popped event's Proc and closure are not retained through it.
type eventHeap []event

// before reports whether a runs before b: earlier time, then lower seq.
func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push inserts ev.
func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	*h = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

// peekAt returns the earliest stored event time. It never restructures
// the store, so it is safe between conservative windows, when earlier
// (but still future) events can yet arrive over links.
func (h eventHeap) peekAt() (Time, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// popMin removes and returns the earliest event in (at, seq) order. It
// panics on an empty store.
func (h *eventHeap) popMin() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{}
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(&s[c]) {
			c = r
		}
		if !s[c].before(&last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}

// reset drops every stored event and releases the backing array (used
// by Env.Close so dead environments retain no Proc or closure refs).
func (h *eventHeap) reset() { *h = nil }
