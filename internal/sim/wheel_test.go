package sim

import (
	"fmt"
	"testing"
)

// eventHeap is a binary min-heap over (at, seq): the reference
// implementation of the event store's contract. The production store is
// the hierarchical timer wheel in wheel.go; the differential tests
// below execute the wheel against this heap, so the exact (at, seq)
// order stays pinned by executable code rather than prose.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	*h = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // clear the vacated slot: drop fn/Proc references
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// TestWheelMatchesHeapRandomOps is the structural differential test
// pinning the timer wheel to the reference heap: random interleavings of
// pushes (quantized offsets to force same-instant ties, plus far-future
// times that land on the overflow levels) and pops must yield the exact
// same (at, seq) sequence from both stores, with peekAt agreeing before
// every pop.
func TestWheelMatchesHeapRandomOps(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		var w timerWheel
		var h eventHeap
		rng := uint64(trial)*0x5851f42d4c957f2d + 1
		now := Time(0)
		var seq uint64
		live := 0
		step := func(what string) {
			t.Helper()
			wa, wok := w.peekAt()
			if !wok || wa != h[0].at {
				t.Fatalf("trial %d %s: peekAt = (%d, %v), heap min %d", trial, what, wa, wok, h[0].at)
			}
			we, he := w.popMin(), h.pop()
			if we.at != he.at || we.seq != he.seq {
				t.Fatalf("trial %d %s: wheel popped (at=%d seq=%d), heap (at=%d seq=%d)",
					trial, what, we.at, we.seq, he.at, he.seq)
			}
			now = we.at
			live--
		}
		for op := 0; op < 4000; op++ {
			if live == 0 || splitmix64(&rng)%3 != 0 {
				n := 1 + int(splitmix64(&rng)%4)
				for i := 0; i < n; i++ {
					// Engine contract: the wheel only ever receives strictly
					// future events (same-instant schedules go to imm).
					var off Time
					switch splitmix64(&rng) % 8 {
					case 0, 1, 2, 3:
						// Quantized near offsets: collisions at one instant
						// are common, exercising tie staging.
						off = Time(1+splitmix64(&rng)%8) * 1000
					case 4, 5:
						off = Time(1 + splitmix64(&rng)%1_000_000)
					case 6:
						off = Time(1<<40) + Time(splitmix64(&rng)%4)*1000
					default:
						// Overflow level: beyond 2^60 picoseconds.
						off = Time(1<<61) + Time(splitmix64(&rng)%2)
					}
					seq++
					ev := event{at: now + off, seq: seq}
					w.push(ev)
					h.push(ev)
					live++
				}
			} else {
				step("interleaved")
			}
		}
		for live > 0 {
			step("drain")
		}
		if w.len() != 0 {
			t.Fatalf("trial %d: wheel reports %d events after drain", trial, w.len())
		}
		if _, ok := w.peekAt(); ok {
			t.Fatalf("trial %d: peekAt ok on drained wheel", trial)
		}
	}
}

// refSched mirrors Env's event loop semantics on the reference heap:
// same clamp-to-now rule, same imm ring for same-instant schedules, same
// wheel-before-imm rule at one instant, same horizon behavior. The
// program-level differential test runs identical callback programs
// through a real Env (wheel-backed) and through this, and compares
// execution logs.
type refSched struct {
	now  Time
	seq  uint64
	heap eventHeap
	imm  Ring[event]
}

func (r *refSched) schedule(at Time, fn func()) {
	if at < r.now {
		at = r.now
	}
	r.seq++
	ev := event{at: at, seq: r.seq, fn: fn}
	if at == r.now {
		r.imm.PushBack(ev)
		return
	}
	r.heap.push(ev)
}

func (r *refSched) run(until Time) {
	for {
		var ev event
		switch {
		case len(r.heap) > 0 && r.heap[0].at == r.now:
			ev = r.heap.pop()
		case r.imm.Len() > 0:
			ev = r.imm.PopFront()
		case len(r.heap) > 0:
			if until > 0 && r.heap[0].at > until {
				r.now = until
				return
			}
			ev = r.heap.pop()
		default:
			return
		}
		r.now = ev.at
		ev.fn()
	}
}

// wheelProgram is a deterministic self-scheduling callback workload: each
// executed callback logs (now, id) and schedules 0–2 children at offsets
// drawn from its id-seeded generator — zero offsets (imm path), near
// offsets (tie-heavy), and far-future offsets (overflow levels). Because
// a callback's behavior depends only on its id, identical execution
// orders produce identical logs, and any ordering divergence between the
// two schedulers cascades into a log difference.
type wheelProgram struct {
	log    []string
	issued int
	limit  int
	seed   uint64
	sched  func(at Time, fn func())
	nowFn  func() Time
}

func (pr *wheelProgram) spawn(id int) func() {
	return func() {
		now := pr.nowFn()
		pr.log = append(pr.log, fmt.Sprintf("t=%d id=%d", now, id))
		rng := pr.seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15
		kids := int(splitmix64(&rng) % 3)
		for k := 0; k < kids && pr.issued < pr.limit; k++ {
			var off Time
			switch splitmix64(&rng) % 6 {
			case 0:
				off = 0 // same instant: imm ring
			case 1, 2:
				off = Time(splitmix64(&rng)%5) * 700 // near, tie-prone (may be 0)
			case 3:
				off = Time(1 + splitmix64(&rng)%1_000_000)
			case 4:
				off = Time(1<<41) + Time(splitmix64(&rng)%3)*500
			default:
				off = Time(1<<61) + Time(splitmix64(&rng)%2) // overflow level
			}
			id2 := pr.issued
			pr.issued++
			pr.sched(now+off, pr.spawn(id2))
		}
	}
}

func (pr *wheelProgram) seedRoots(roots int) {
	rng := pr.seed
	for i := 0; i < roots; i++ {
		at := Time(splitmix64(&rng) % 3000)
		id := pr.issued
		pr.issued++
		pr.sched(at, pr.spawn(id))
	}
}

// TestEnvWheelDifferentialPrograms runs randomized self-scheduling
// programs through a wheel-backed Env and the heap-backed reference
// scheduler and requires byte-identical execution logs — including
// same-instant imm interleavings, horizon-bounded runs that strand
// far-future events in the wheel, and Close on the still-populated wheel
// afterwards.
func TestEnvWheelDifferentialPrograms(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		seed := uint64(trial)*0x9e3779b97f4a7c15 + 7
		// Odd trials stop at a mid-run horizon, leaving the far-future
		// events stranded; even trials run to completion.
		var horizon Time
		if trial%2 == 1 {
			horizon = Time(1 << 42)
		}

		env := NewEnv()
		pe := &wheelProgram{limit: 300, seed: seed, sched: env.At, nowFn: env.Now}
		pe.seedRoots(8)
		env.Run(horizon)
		envNow := env.Now()
		envNext, envPending := env.NextEventAt()
		env.Close() // wheel may still hold far-future events: reset path
		env.Close() // idempotent

		ref := &refSched{}
		pr := &wheelProgram{limit: 300, seed: seed, sched: ref.schedule, nowFn: func() Time { return ref.now }}
		pr.seedRoots(8)
		ref.run(horizon)

		if len(pe.log) != len(pr.log) {
			t.Fatalf("trial %d: env executed %d callbacks, reference %d", trial, len(pe.log), len(pr.log))
		}
		for i := range pe.log {
			if pe.log[i] != pr.log[i] {
				t.Fatalf("trial %d: execution logs diverge at step %d: env %q, reference %q",
					trial, i, pe.log[i], pr.log[i])
			}
		}
		if envNow != ref.now {
			t.Fatalf("trial %d: env clock %d, reference %d", trial, envNow, ref.now)
		}
		refPending := len(ref.heap) > 0
		if envPending != refPending {
			t.Fatalf("trial %d: env pending=%v, reference pending=%v", trial, envPending, refPending)
		}
		if envPending && envNext != ref.heap[0].at {
			t.Fatalf("trial %d: env NextEventAt %d, reference min %d", trial, envNext, ref.heap[0].at)
		}
	}
}

// TestEnvNextEventAtEdgeCases covers the peek path the window scheduler
// depends on: empty environment, overflow-level far-future events,
// repeated (cached) peeks, cache invalidation by an earlier push, the
// imm fast path, and a horizon run that leaves the far event pending.
func TestEnvNextEventAtEdgeCases(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	if at, ok := env.NextEventAt(); ok {
		t.Fatalf("empty env: NextEventAt = (%d, true), want none", at)
	}
	far := Time(1<<61) + 12345 // overflow level of the wheel
	env.At(far, func() {})
	for i := 0; i < 3; i++ { // repeated peeks must not restructure or drift
		if at, ok := env.NextEventAt(); !ok || at != far {
			t.Fatalf("peek %d: NextEventAt = (%d, %v), want (%d, true)", i, at, ok, far)
		}
	}
	near := Time(1000)
	env.At(near, func() {}) // strictly earlier: must displace the cached min
	if at, ok := env.NextEventAt(); !ok || at != near {
		t.Fatalf("after near push: NextEventAt = (%d, %v), want (%d, true)", at, ok, near)
	}
	env.At(0, func() {}) // at == now: imm ring, reported at the current instant
	if at, ok := env.NextEventAt(); !ok || at != 0 {
		t.Fatalf("with imm pending: NextEventAt = (%d, %v), want (0, true)", at, ok)
	}
	if end := env.Run(Time(2000)); end != Time(2000) {
		t.Fatalf("Run(2000) returned %d", end)
	}
	if at, ok := env.NextEventAt(); !ok || at != far {
		t.Fatalf("after horizon run: NextEventAt = (%d, %v), want (%d, true)", at, ok, far)
	}
	if end := env.Run(0); end != far {
		t.Fatalf("run to completion ended at %d, want %d", end, far)
	}
	if at, ok := env.NextEventAt(); ok {
		t.Fatalf("drained env: NextEventAt = (%d, true), want none", at)
	}
}

// TestWheelReset: reset drops all events and storage; the wheel is
// immediately reusable from a zero base.
func TestWheelReset(t *testing.T) {
	var w timerWheel
	for i := 0; i < 100; i++ {
		w.push(event{at: Time(i+1) * 1000, seq: uint64(i + 1)})
	}
	w.popMin() // advance base, stage nothing, exercise freelist
	w.reset()
	if w.len() != 0 {
		t.Fatalf("len %d after reset", w.len())
	}
	if _, ok := w.peekAt(); ok {
		t.Fatal("peekAt ok after reset")
	}
	w.push(event{at: 5, seq: 1})
	if at, ok := w.peekAt(); !ok || at != 5 {
		t.Fatalf("reused wheel peek = (%d, %v), want (5, true)", at, ok)
	}
}
