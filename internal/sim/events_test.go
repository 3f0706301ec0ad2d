package sim

import (
	"fmt"
	"testing"
)

// scanStore is the reference implementation of the event store's
// contract, the simplest thing that is obviously right: an unsorted
// slice whose pop is a linear scan for the minimum (at, seq). The
// production store is the binary heap in events.go; the tests below
// execute the heap against this, so the exact (at, seq) order stays
// pinned by executable code rather than prose.
type scanStore []event

func (s *scanStore) push(ev event) { *s = append(*s, ev) }

// min returns the index of the earliest event.
func (s scanStore) min() int {
	m := 0
	for i := 1; i < len(s); i++ {
		if s[i].at < s[m].at || s[i].at == s[m].at && s[i].seq < s[m].seq {
			m = i
		}
	}
	return m
}

func (s scanStore) peekAt() (Time, bool) {
	if len(s) == 0 {
		return 0, false
	}
	return s[s.min()].at, true
}

func (s *scanStore) popMin() event {
	m := s.min()
	ev := (*s)[m]
	*s = append((*s)[:m], (*s)[m+1:]...)
	return ev
}

// runStoreOps executes one op program on the heap and on the scan
// reference and fails on the first disagreement. Each op is decoded
// from data: a byte choosing between a pop (peekAt checked first) and
// a burst of 1–4 pushes, then per push a byte choosing the offset
// class — quantized near offsets that collide at one instant and force
// (at, seq) ties, arbitrary sub-microsecond offsets, 2^40-scale and
// 2^61-scale far-future times — and the bytes of its argument. The
// program ends with a full drain.
func runStoreOps(t *testing.T, data []byte) {
	t.Helper()
	var h eventHeap
	var ref scanStore
	now := Time(0)
	var seq uint64
	arg := func(n int) uint64 { // next n bytes, little-endian; missing bytes read as 0
		var v uint64
		for i := 0; i < n && len(data) > 0; i++ {
			v |= uint64(data[0]) << (8 * uint(i))
			data = data[1:]
		}
		return v
	}
	pop := func(what string) {
		t.Helper()
		ha, hok := h.peekAt()
		ra, _ := ref.peekAt()
		if !hok || ha != ra {
			t.Fatalf("%s: peekAt = (%d, %v), reference min %d", what, ha, hok, ra)
		}
		he, re := h.popMin(), ref.popMin()
		if he.at != re.at || he.seq != re.seq {
			t.Fatalf("%s: heap popped (at=%d seq=%d), reference (at=%d seq=%d)",
				what, he.at, he.seq, re.at, re.seq)
		}
		now = he.at
	}
	for len(data) > 0 {
		op := arg(1)
		if len(ref) > 0 && op%3 == 0 {
			pop("interleaved")
			continue
		}
		for n := 1 + (op>>2)%4; n > 0; n-- {
			var off Time
			switch arg(1) % 8 {
			case 0, 1, 2, 3:
				off = Time(1+arg(1)%8) * 1000
			case 4, 5:
				off = Time(1 + arg(3)%1_000_000)
			case 6:
				off = Time(1<<40) + Time(arg(1)%4)*1000
			default:
				off = Time(1<<61) + Time(arg(1)%2)
			}
			// Engine contract: the store only ever receives strictly
			// future events (same-instant schedules go to imm). A few
			// popped 2^61 offsets would wrap the clock; skip those.
			if now+off <= now {
				continue
			}
			seq++
			ev := event{at: now + off, seq: seq}
			h.push(ev)
			ref.push(ev)
		}
	}
	for len(ref) > 0 {
		pop("drain")
	}
	if len(h) != 0 {
		t.Fatalf("heap holds %d events after drain", len(h))
	}
	if _, ok := h.peekAt(); ok {
		t.Fatal("peekAt ok on drained heap")
	}
}

// TestEventStoreMatchesScanRandomOps is the structural differential
// test pinning the heap to the scan reference over long seeded op
// programs (FuzzEventStore explores the same programs from its corpus).
func TestEventStoreMatchesScanRandomOps(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := uint64(trial)*0x5851f42d4c957f2d + 1
		data := make([]byte, 16<<10)
		for i := range data {
			data[i] = byte(splitmix64(&rng) >> 32)
		}
		runStoreOps(t, data)
	}
}

// FuzzEventStore runs fuzz-chosen op programs through runStoreOps.
// testdata/fuzz/FuzzEventStore holds one program per offset class and
// per pattern a heap can get wrong (all ties, pops down to empty
// between bursts, ascending and descending pushes, far-future chains).
func FuzzEventStore(f *testing.F) {
	f.Fuzz(runStoreOps)
}

// refSched mirrors Env's event loop semantics on the scan reference:
// same clamp-to-now rule, same imm ring for same-instant schedules, same
// store-before-imm rule at one instant, same horizon behavior. The
// program-level differential test runs identical callback programs
// through a real Env (heap-backed) and through this, and compares
// execution logs.
type refSched struct {
	now   Time
	seq   uint64
	store scanStore
	imm   Ring[event]
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
	r.store.push(ev)
}

func (r *refSched) run(until Time) {
	for {
		at, pending := r.store.peekAt()
		var ev event
		switch {
		case pending && at == r.now:
			ev = r.store.popMin()
		case r.imm.Len() > 0:
			ev = r.imm.PopFront()
		case pending:
			if until > 0 && at > until {
				r.now = until
				return
			}
			ev = r.store.popMin()
		default:
			return
		}
		r.now = ev.at
		ev.fn()
	}
}

// storeProgram is a deterministic self-scheduling callback workload: each
// executed callback logs (now, id) and schedules 0–2 children at offsets
// drawn from its id-seeded generator — zero offsets (imm path), near
// offsets (tie-heavy), and far-future offsets (2^41 and 2^61 scale).
// Because a callback's behavior depends only on its id, identical
// execution orders produce identical logs, and any ordering divergence
// between the two schedulers cascades into a log difference.
type storeProgram struct {
	log    []string
	issued int
	limit  int
	seed   uint64
	sched  func(at Time, fn func())
	nowFn  func() Time
}

func (pr *storeProgram) spawn(id int) func() {
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
				off = Time(1<<61) + Time(splitmix64(&rng)%2)
			}
			id2 := pr.issued
			pr.issued++
			pr.sched(now+off, pr.spawn(id2))
		}
	}
}

func (pr *storeProgram) seedRoots(roots int) {
	rng := pr.seed
	for i := 0; i < roots; i++ {
		at := Time(splitmix64(&rng) % 3000)
		id := pr.issued
		pr.issued++
		pr.sched(at, pr.spawn(id))
	}
}

// TestEnvEventStoreDifferentialPrograms runs randomized self-scheduling
// programs through a real Env and the scan-backed reference scheduler
// and requires byte-identical execution logs — including same-instant
// imm interleavings, horizon-bounded runs that strand far-future events
// in the store, and Close on the still-populated store afterwards.
func TestEnvEventStoreDifferentialPrograms(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		seed := uint64(trial)*0x9e3779b97f4a7c15 + 7
		// Odd trials stop at a mid-run horizon, leaving the far-future
		// events stranded; even trials run to completion.
		var horizon Time
		if trial%2 == 1 {
			horizon = Time(1 << 42)
		}

		env := NewEnv()
		pe := &storeProgram{limit: 300, seed: seed, sched: env.At, nowFn: env.Now}
		pe.seedRoots(8)
		env.Run(horizon)
		envNow := env.Now()
		envNext, envPending := env.NextEventAt()
		env.Close() // the store may still hold far-future events: reset path
		env.Close() // idempotent

		ref := &refSched{}
		pr := &storeProgram{limit: 300, seed: seed, sched: ref.schedule, nowFn: func() Time { return ref.now }}
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
		refNext, refPending := ref.store.peekAt()
		if envPending != refPending {
			t.Fatalf("trial %d: env pending=%v, reference pending=%v", trial, envPending, refPending)
		}
		if envPending && envNext != refNext {
			t.Fatalf("trial %d: env NextEventAt %d, reference min %d", trial, envNext, refNext)
		}
	}
}

// TestEnvNextEventAtEdgeCases covers the peek path the window scheduler
// depends on: empty environment, 2^61-scale far-future events, repeated
// peeks, an earlier push displacing the minimum, the imm fast path, and
// a horizon run that leaves the far event pending.
func TestEnvNextEventAtEdgeCases(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	if at, ok := env.NextEventAt(); ok {
		t.Fatalf("empty env: NextEventAt = (%d, true), want none", at)
	}
	far := Time(1<<61) + 12345
	env.At(far, func() {})
	for i := 0; i < 3; i++ { // repeated peeks must not restructure or drift
		if at, ok := env.NextEventAt(); !ok || at != far {
			t.Fatalf("peek %d: NextEventAt = (%d, %v), want (%d, true)", i, at, ok, far)
		}
	}
	near := Time(1000)
	env.At(near, func() {}) // strictly earlier: must become the minimum
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

// TestEventStoreReset: popMin zeroes the slot it vacates (a popped
// event's Proc and closure must not stay reachable through the backing
// array), reset drops all events and storage, and the store is
// immediately reusable.
func TestEventStoreReset(t *testing.T) {
	var h eventHeap
	p := &Proc{}
	for i := 0; i < 100; i++ {
		h.push(event{at: Time(i+1) * 1000, seq: uint64(i + 1), p: p, fn: func() {}})
	}
	for i := 0; i < 40; i++ {
		h.popMin()
	}
	for i, ev := range h[:cap(h)][len(h):100] {
		if ev.p != nil || ev.fn != nil {
			t.Fatalf("vacated slot %d retains p=%v fn set=%v", len(h)+i, ev.p, ev.fn != nil)
		}
	}
	h.reset()
	if len(h) != 0 || cap(h) != 0 {
		t.Fatalf("len %d cap %d after reset", len(h), cap(h))
	}
	if _, ok := h.peekAt(); ok {
		t.Fatal("peekAt ok after reset")
	}
	h.push(event{at: 5, seq: 1})
	if at, ok := h.peekAt(); !ok || at != 5 {
		t.Fatalf("reused store peek = (%d, %v), want (5, true)", at, ok)
	}
}

// holdStore is the hold model on a store of n events: pop the minimum,
// push one event a SplitMix delay of up to 1 µs after it. The
// population stays n, so ns/op is the price of one pop + push pair at
// that population.
type holdStore struct {
	h   eventHeap
	rng uint64
	seq uint64
}

func newHoldStore(n int) *holdStore {
	s := &holdStore{rng: uint64(n)}
	for i := 0; i < n; i++ {
		s.seq++
		s.h.push(event{at: Time(1 + splitmix64(&s.rng)%uint64(Microsecond)), seq: s.seq})
	}
	return s
}

func (s *holdStore) step() {
	ev := s.h.popMin()
	s.seq++
	s.h.push(event{at: ev.at + Time(1+splitmix64(&s.rng)%uint64(Microsecond)), seq: s.seq})
}

// BenchmarkEventStore prices the heap as its population grows — the
// repository's workloads peak at 8–87 pending events per Env — and
// asserts the steady state allocates nothing. DESIGN.md, "Event store:
// a binary heap, and why", records the table.
func BenchmarkEventStore(b *testing.B) {
	for _, n := range []int{8, 64, 1024, 16384} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s := newHoldStore(n)
			for i := 0; i < 4*n; i++ { // reach the hold model's steady distribution
				s.step()
			}
			if a := testing.AllocsPerRun(1000, s.step); a != 0 {
				b.Fatalf("hold-%d: %v allocs per pop+push, want 0", n, a)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.step()
			}
		})
	}
}
