package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDurationConversions(t *testing.T) {
	if Second.Seconds() != 1.0 {
		t.Errorf("Second.Seconds() = %v, want 1", Second.Seconds())
	}
	if Microsecond.Microseconds() != 1.0 {
		t.Errorf("Microsecond.Microseconds() = %v, want 1", Microsecond.Microseconds())
	}
	if d := DurationFromSeconds(1.5); d != 1500*Millisecond {
		t.Errorf("DurationFromSeconds(1.5) = %v, want %v", d, 1500*Millisecond)
	}
	if d := DurationFromSeconds(0); d != 0 {
		t.Errorf("DurationFromSeconds(0) = %v, want 0", d)
	}
}

func TestEventOrdering(t *testing.T) {
	env := NewEnv()
	var order []int
	env.After(3*Microsecond, func() { order = append(order, 3) })
	env.After(1*Microsecond, func() { order = append(order, 1) })
	env.After(2*Microsecond, func() { order = append(order, 2) })
	env.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	env := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		env.After(5*Nanosecond, func() { order = append(order, i) })
	}
	env.Run(0)
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	env := NewEnv()
	fired := false
	env.After(10*Microsecond, func() { fired = true })
	end := env.Run(Time(5 * Microsecond))
	if fired {
		t.Error("event past the horizon fired")
	}
	if end != Time(5*Microsecond) {
		t.Errorf("Run returned %v, want 5us", end)
	}
}

func TestRunReentryPanics(t *testing.T) {
	env := NewEnv()
	env.After(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		env.Run(0)
	})
	env.Run(0)
}

func TestPastEventClampsToNow(t *testing.T) {
	env := NewEnv()
	var at Time
	env.After(10*Microsecond, func() {
		env.At(Time(3*Microsecond), func() { at = env.Now() })
	})
	env.Run(0)
	if at != Time(10*Microsecond) {
		t.Errorf("past event ran at %v, want clamped to 10us", at)
	}
}

func TestProcSleep(t *testing.T) {
	env := NewEnv()
	var wake Time
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(7 * Microsecond)
		wake = p.Now()
	})
	env.Run(0)
	if wake != Time(7*Microsecond) {
		t.Errorf("woke at %v, want 7us", wake)
	}
}

func TestProcSleepSequence(t *testing.T) {
	env := NewEnv()
	var marks []Time
	env.Go("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(1 * Microsecond)
			marks = append(marks, p.Now())
		}
	})
	env.Run(0)
	for i, m := range marks {
		want := Time((i + 1)) * Time(Microsecond)
		if m != want {
			t.Errorf("mark %d at %v, want %v", i, m, want)
		}
	}
}

func TestSleepUntilPastIsNoop(t *testing.T) {
	env := NewEnv()
	env.Go("p", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		p.SleepUntil(Time(1 * Microsecond)) // in the past
		if p.Now() != Time(5*Microsecond) {
			t.Errorf("SleepUntil past moved clock to %v", p.Now())
		}
	})
	env.Run(0)
}

func TestTwoProcsInterleave(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("a", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		order = append(order, "a1")
		p.Sleep(2 * Microsecond)
		order = append(order, "a3")
	})
	env.Go("b", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		order = append(order, "b2")
	})
	env.Run(0)
	want := []string{"a1", "b2", "a3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestQueueBlockingGet(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 0)
	var got int
	var gotAt Time
	env.Go("consumer", func(p *Proc) {
		got = q.Get(p)
		gotAt = p.Now()
	})
	env.Go("producer", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		q.Put(p, 42)
	})
	env.Run(0)
	if got != 42 {
		t.Errorf("got %d, want 42", got)
	}
	if gotAt != Time(5*Microsecond) {
		t.Errorf("consumer woke at %v, want 5us", gotAt)
	}
}

func TestQueueBoundedPutBlocks(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 2)
	var putDone Time
	env.Go("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3) // must block until the consumer drains one
		putDone = p.Now()
	})
	env.Go("consumer", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		q.Get(p)
	})
	env.Run(0)
	if putDone != Time(10*Microsecond) {
		t.Errorf("third Put completed at %v, want 10us", putDone)
	}
	if q.Len() != 2 {
		t.Errorf("queue len = %d, want 2", q.Len())
	}
}

func TestQueueFIFOAcrossManyItems(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 0)
	var got []int
	env.Go("producer", func(p *Proc) {
		for i := 0; i < 100; i++ {
			q.Put(p, i)
			if i%7 == 0 {
				p.Sleep(1 * Nanosecond)
			}
		}
	})
	env.Go("consumer", func(p *Proc) {
		for i := 0; i < 100; i++ {
			got = append(got, q.Get(p))
		}
	})
	env.Run(0)
	if len(got) != 100 {
		t.Fatalf("received %d items, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestQueueTryGetTryPut(t *testing.T) {
	env := NewEnv()
	q := NewQueue[string](env, 1)
	if _, ok := q.TryGet(); ok {
		t.Error("TryGet on empty queue succeeded")
	}
	if !q.TryPut("x") {
		t.Error("TryPut on empty bounded queue failed")
	}
	if q.TryPut("y") {
		t.Error("TryPut on full queue succeeded")
	}
	v, ok := q.TryGet()
	if !ok || v != "x" {
		t.Errorf("TryGet = %q,%v want x,true", v, ok)
	}
}

// TestQueueDrainAppend: DrainAppend takes at most n items in FIFO order
// and appends them after what dst already holds; on an empty queue it
// returns dst unchanged.
func TestQueueDrainAppend(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 0)
	for i := 0; i < 5; i++ {
		q.TryPut(i)
	}
	if out := q.DrainAppend([]int{-1}, 3); !slices.Equal(out, []int{-1, 0, 1, 2}) {
		t.Errorf("DrainAppend([-1], 3) = %v, want [-1 0 1 2]", out)
	}
	if q.Len() != 2 {
		t.Errorf("len after drain = %d, want 2", q.Len())
	}
	if out := q.DrainAppend(nil, 10); !slices.Equal(out, []int{3, 4}) {
		t.Errorf("DrainAppend(nil, 10) = %v, want the remaining [3 4]", out)
	}
	if out := q.DrainAppend([]int{-1}, 4); !slices.Equal(out, []int{-1}) {
		t.Errorf("DrainAppend on empty = %v, want dst unchanged", out)
	}
}

func TestQueueDrainWakesPutters(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 1)
	var done Time
	env.Go("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2) // blocks
		done = p.Now()
	})
	env.Go("drainer", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		q.DrainAppend(nil, 1)
	})
	env.Run(0)
	if done != Time(3*Microsecond) {
		t.Errorf("blocked putter resumed at %v, want 3us", done)
	}
}

// TestBusyClockClipsAtReadings: for random overlapping activities, the
// difference of two readings of a BusyClock equals the activities'
// time inside the interval between them, each clipped at its edges.
func TestBusyClockClipsAtReadings(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		type span struct{ from, to Time }
		spans := make([]span, 1+rng.Intn(20))
		type step struct {
			at   Time
			span int // -1: a reading
		}
		var steps []step
		for i := range spans {
			a, b := Time(rng.Intn(1000)), Time(rng.Intn(1000))
			spans[i] = span{min(a, b), max(a, b)}
			steps = append(steps, step{spans[i].from, i}, step{spans[i].to, i})
		}
		t0, t1 := Time(rng.Intn(1000)), Time(rng.Intn(1000))
		t0, t1 = min(t0, t1), max(t0, t1)
		steps = append(steps, step{t0, -1}, step{t1, -1})
		// Time order; at one instant, a span's Begin stays before its End,
		// and the readings come last.
		open := make([]bool, len(spans))
		slices.SortStableFunc(steps, func(x, y step) int { return int(x.at - y.at) })
		var c BusyClock
		var reads []Duration
		for _, st := range steps {
			switch {
			case st.span < 0:
				reads = append(reads, c.At(st.at))
			case !open[st.span]:
				open[st.span] = true
				c.Begin(st.at)
			default:
				c.End(spans[st.span].from, st.at)
			}
		}
		var want Duration
		for _, sp := range spans {
			if lo, hi := max(sp.from, t0), min(sp.to, t1); hi > lo {
				want += Duration(hi - lo)
			}
		}
		if got := reads[1] - reads[0]; got != want {
			t.Fatalf("trial %d: readings at %d and %d differ by %d, the clipped spans sum to %d", trial, t0, t1, got, want)
		}
	}
}

func TestServerSerializes(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, "link")
	var aDone, bDone Time
	env.Go("a", func(p *Proc) {
		srv.Use(p, 10*Microsecond)
		aDone = p.Now()
	})
	env.Go("b", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		srv.Use(p, 10*Microsecond)
		bDone = p.Now()
	})
	env.Run(0)
	if aDone != Time(10*Microsecond) {
		t.Errorf("a done at %v, want 10us", aDone)
	}
	if bDone != Time(20*Microsecond) {
		t.Errorf("b done at %v, want 20us (queued behind a)", bDone)
	}
}

func TestServerIdleGap(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, "link")
	var done Time
	env.Go("a", func(p *Proc) {
		srv.Use(p, 5*Microsecond)
		p.Sleep(100 * Microsecond) // server idles
		srv.Use(p, 5*Microsecond)
		done = p.Now()
	})
	env.Run(0)
	if done != Time(110*Microsecond) {
		t.Errorf("done at %v, want 110us (idle gap must not accumulate)", done)
	}
	if srv.BusyTime() != 10*Microsecond {
		t.Errorf("busy = %v, want 10us", srv.BusyTime())
	}
}

func TestServerSchedule(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, "dma")
	t1 := srv.Schedule(4 * Microsecond)
	t2 := srv.Schedule(4 * Microsecond)
	if t1 != Time(4*Microsecond) || t2 != Time(8*Microsecond) {
		t.Errorf("Schedule = %v,%v want 4us,8us", t1, t2)
	}
	if srv.Backlog() != 8*Microsecond {
		t.Errorf("backlog = %v, want 8us", srv.Backlog())
	}
}

// Property: for any set of event delays, events execute in nondecreasing
// time order and the clock never goes backwards.
func TestEventClockMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		env := NewEnv()
		var times []Time
		for _, d := range delays {
			env.After(Duration(d)*Nanosecond, func() { times = append(times, env.Now()) })
		}
		env.Run(0)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a bounded queue never exceeds its capacity and delivers items
// in insertion order, no matter the interleaving of sleeps.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(seed int64, capacity uint8) bool {
		cap := int(capacity%8) + 1
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv()
		q := NewQueue[int](env, cap)
		const n = 200
		var got []int
		overflow := false
		env.Go("producer", func(p *Proc) {
			for i := 0; i < n; i++ {
				q.Put(p, i)
				if q.Len() > cap {
					overflow = true
				}
				if rng.Intn(3) == 0 {
					p.Sleep(Duration(rng.Intn(100)) * Nanosecond)
				}
			}
		})
		env.Go("consumer", func(p *Proc) {
			for i := 0; i < n; i++ {
				got = append(got, q.Get(p))
				if rng.Intn(3) == 0 {
					p.Sleep(Duration(rng.Intn(100)) * Nanosecond)
				}
			}
		})
		env.Run(0)
		if overflow || len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a FIFO server's completions are spaced at least the service
// time apart.
func TestServerSpacingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv()
		srv := NewServer(env, "s")
		var completions []Time
		for i := 0; i < 20; i++ {
			start := Duration(rng.Intn(1000)) * Nanosecond
			env.Go("u", func(p *Proc) {
				p.Sleep(start)
				srv.Use(p, 100*Nanosecond)
				completions = append(completions, p.Now())
			})
		}
		env.Run(0)
		for i := 1; i < len(completions); i++ {
			if completions[i]-completions[i-1] < Time(100*Nanosecond) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestManyProcsDeterminism(t *testing.T) {
	run := func() []int {
		env := NewEnv()
		q := NewQueue[int](env, 4)
		var got []int
		for i := 0; i < 8; i++ {
			i := i
			env.Go("producer", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(Duration(i+1) * Microsecond)
					q.Put(p, i*100+j)
				}
			})
		}
		env.Go("consumer", func(p *Proc) {
			for k := 0; k < 80; k++ {
				got = append(got, q.Get(p))
			}
		})
		env.Run(0)
		return got
	}
	a, b := run(), run()
	if len(a) != 80 || len(b) != 80 {
		t.Fatalf("lens = %d,%d want 80", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestServerScheduleAt(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, "s")
	// notBefore in the future: service starts there.
	done := srv.ScheduleAt(Time(100*Microsecond), 10*Microsecond)
	if done != Time(110*Microsecond) {
		t.Errorf("done = %v, want 110us", done)
	}
	// Next reservation queues behind the first even though notBefore is
	// earlier.
	done2 := srv.ScheduleAt(Time(50*Microsecond), 5*Microsecond)
	if done2 != Time(115*Microsecond) {
		t.Errorf("done2 = %v, want 115us", done2)
	}
	// notBefore in the past behaves like Schedule.
	env.After(200*Microsecond, func() {
		if d := srv.ScheduleAt(Time(1*Microsecond), 5*Microsecond); d != Time(205*Microsecond) {
			t.Errorf("past notBefore: done = %v, want 205us", d)
		}
	})
	env.Run(0)
}

// TestServerScheduleAtCountsBusyOnly: busy time excludes the idle gap
// before notBefore, and counts the service only as it runs.
func TestServerScheduleAtCountsBusyOnly(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, "s")
	srv.ScheduleAt(Time(1*Millisecond), 10*Microsecond)
	if srv.Backlog() != Duration(Time(1*Millisecond)+Time(10*Microsecond)) {
		t.Errorf("backlog = %v", srv.Backlog())
	}
	for _, c := range []struct{ at, busy Duration }{
		{0, 0},
		{Millisecond / 2, 0},
		{Millisecond + 4*Microsecond, 4 * Microsecond},
		{2 * Millisecond, 10 * Microsecond},
	} {
		env.At(Time(c.at), func() {
			if srv.BusyTime() != c.busy {
				t.Errorf("busy at %v = %v, want %v", c.at, srv.BusyTime(), c.busy)
			}
		})
	}
	env.Run(0)
}

func TestMultiplePuttersWakeInFIFOOrder(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 1)
	var order []int
	q.TryPut(0) // fill the queue
	for i := 1; i <= 3; i++ {
		i := i
		env.Go("putter", func(p *Proc) {
			q.Put(p, i)
			order = append(order, i)
		})
	}
	env.Go("drainer", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		for j := 0; j < 4; j++ {
			q.Get(p)
			p.Sleep(1 * Microsecond)
		}
	})
	env.Run(0)
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("putters woke out of order: %v", order)
		}
	}
	if len(order) != 3 {
		t.Fatalf("only %d putters completed", len(order))
	}
}

func TestDurationFromSecondsRounding(t *testing.T) {
	ps := func(n float64) float64 { return n * 1e-12 }
	cases := []struct {
		s    float64
		want Duration
	}{
		// Round-to-nearest on both signs.
		{ps(1.4), 1}, {ps(1.6), 2},
		{ps(-1.4), -1}, {ps(-1.6), -2},
		// Ties round away from zero (the old +0.5 truncation gave
		// -1.5ps -> -1ps and -0.7ps -> 0).
		{ps(1.5), 2}, {ps(-1.5), -2},
		{ps(0.7), 1}, {ps(-0.7), -1},
		{ps(0.4), 0}, {ps(-0.4), 0},
		// Symmetry at larger magnitudes.
		{1.5, 1500 * Millisecond}, {-1.5, -1500 * Millisecond},
		{-1.0, -Second},
	}
	for _, c := range cases {
		if got := DurationFromSeconds(c.s); got != c.want {
			t.Errorf("DurationFromSeconds(%v) = %d, want %d", c.s, got, c.want)
		}
	}
	// Negation symmetry property: f(-s) == -f(s).
	for _, s := range []float64{ps(0.1), ps(1.5), ps(2.5), 1e-9, 3.25e-6, 1.75} {
		if DurationFromSeconds(-s) != -DurationFromSeconds(s) {
			t.Errorf("rounding not symmetric at %v: %d vs %d",
				s, DurationFromSeconds(-s), DurationFromSeconds(s))
		}
	}
}

// recordingHooks collects ServerBusy callbacks for inspection.
type recordingHooks struct {
	spans []struct {
		id         int
		start, end Time
	}
}

func (h *recordingHooks) ServerBusy(s *Server, start, end Time) {
	h.spans = append(h.spans, struct {
		id         int
		start, end Time
	}{s.ID(), start, end})
}

func TestServerBusyHooksTileBusyTime(t *testing.T) {
	env := NewEnv()
	h := &recordingHooks{}
	env.SetHooks(h)
	srv := NewServer(env, "link")
	if srv.ID() != 1 || srv.Name() != "link" {
		t.Errorf("identity = %d/%q, want 1/link", srv.ID(), srv.Name())
	}
	env.Go("a", func(p *Proc) {
		srv.Use(p, 10*Microsecond)
		p.Sleep(5 * Microsecond)
		srv.Schedule(3 * Microsecond)
		srv.ScheduleAt(Time(100*Microsecond), 2*Microsecond)
		srv.Schedule(0) // zero reservations emit no span
	})
	env.Run(0)
	if len(h.spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(h.spans))
	}
	var spans [][2]Time
	for i, sp := range h.spans {
		if sp.end <= sp.start {
			t.Errorf("span %d empty: [%v,%v)", i, sp.start, sp.end)
		}
		spans = append(spans, [2]Time{sp.start, sp.end})
	}
	// The run ends at 15us with 5us of service booked ahead; the spans,
	// clipped at each reading, tile the busy time up to it.
	check := func() {
		if want := clippedBusy(spans, env.Now()); srv.BusyTime() != want {
			t.Errorf("at %v: spans clipped there total %v, busy time %v", env.Now(), want, srv.BusyTime())
		}
	}
	check()
	env.At(Time(101*Microsecond), check)
	env.Run(0)
	// Spans of one FIFO server never overlap.
	for i := 1; i < len(h.spans); i++ {
		if h.spans[i].start < h.spans[i-1].end {
			t.Errorf("spans overlap: %v then %v", h.spans[i-1], h.spans[i])
		}
	}
	// The ScheduleAt gap (idle until 100us) must not be inside any span.
	if h.spans[2].start != Time(100*Microsecond) {
		t.Errorf("deferred span starts at %v, want 100us", h.spans[2].start)
	}
}

// countingHooks records, per server, the spans the hooks see.
type countingHooks map[*Server][][2]Time

func (h countingHooks) ServerBusy(s *Server, start, end Time) {
	h[s] = append(h[s], [2]Time{start, end})
}

// clippedBusy sums spans clipped at now: the service they give up to
// now, whatever is booked beyond it.
func clippedBusy(spans [][2]Time, now Time) Duration {
	var d Duration
	for _, sp := range spans {
		if sp[0] < now {
			d += Duration(min(sp[1], now) - sp[0])
		}
	}
	return d
}

// TestServerCountsTheSpansHooksSee: whichever way a service is charged —
// Use, Schedule, ScheduleAt, ScheduleRun or ScheduleChain with their
// spans reported through Report — the server's own Spans equal the
// spans hooks installed from the start see, and its BusyTime, read after
// every round while service is still booked ahead, equals those spans
// clipped at the reading, zero-length services included (they count in
// neither), and Env.Servers lists the servers in creation order.
func TestServerCountsTheSpansHooksSee(t *testing.T) {
	charges := []struct {
		name   string
		charge func(p *Proc, s *Server, d Duration)
	}{
		{"Use", func(p *Proc, s *Server, d Duration) { s.Use(p, d) }},
		{"Schedule", func(_ *Proc, s *Server, d Duration) { s.Schedule(d) }},
		{"ScheduleAt", func(p *Proc, s *Server, d Duration) { s.ScheduleAt(p.Now()+Time(3*d), d) }},
		{"ScheduleRun", func(_ *Proc, s *Server, d Duration) {
			start := s.ScheduleRun(4, d)
			for k := 0; k < 4; k++ {
				s.Report(start+Time(k)*Time(d), start+Time(k+1)*Time(d))
			}
		}},
		{"ScheduleChain", func(p *Proc, s *Server, d Duration) {
			at := []Time{p.Now(), p.Now() + Time(10*d), p.Now() + Time(10*d)}
			s.ScheduleChain(at, d)
			for _, end := range at {
				s.Report(end-Time(d), end)
			}
		}},
	}
	env := NewEnv()
	h := countingHooks{}
	env.SetHooks(h)
	servers := make([]*Server, len(charges))
	for i, c := range charges {
		servers[i] = NewServer(env, c.name)
	}
	check := func(now Time) {
		for _, s := range servers {
			c := h[s]
			if busy := clippedBusy(c, now); s.Spans() != uint64(len(c)) || s.BusyTime() != busy {
				t.Errorf("%s: server counts %d spans, %v busy at %v; the hooks saw %d spans, %v busy up to then",
					s.Name(), s.Spans(), s.BusyTime(), now, len(c), busy)
			}
		}
	}
	env.Go("driver", func(p *Proc) {
		for _, d := range []Duration{3 * Nanosecond, 0, 7 * Nanosecond} {
			for i, c := range charges {
				c.charge(p, servers[i], d)
			}
			check(p.Now())
			p.Sleep(Microsecond)
		}
	})
	env.Run(0)
	check(env.Now())
	if got := env.Servers(); len(got) != len(servers) {
		t.Fatalf("Env.Servers lists %d servers, want %d", len(got), len(servers))
	}
	for i, s := range servers {
		if env.Servers()[i] != s || s.ID() != i+1 {
			t.Errorf("Env.Servers()[%d] is not the server created %d-th", i, i+1)
		}
		if len(h[s]) == 0 {
			t.Errorf("%s: the hooks saw no span", s.Name())
		}
	}
}

func TestServerIDsUniquePerEnv(t *testing.T) {
	env := NewEnv()
	a := NewServer(env, "x")
	b := NewServer(env, "x")
	if a.ID() == b.ID() {
		t.Errorf("duplicate server IDs: %d", a.ID())
	}
	env2 := NewEnv()
	c := NewServer(env2, "y")
	if c.ID() != 1 {
		t.Errorf("fresh env first server ID = %d, want 1", c.ID())
	}
}

// TestServerRunsMatchSingleReservations: ScheduleRun and ScheduleChain,
// with their spans reported through Report, leave a server exactly as
// the same services reserved one Schedule or ScheduleAt call at a time
// do — completions, busy time, span count, backlog and span sequence — from an idle
// server, behind a backlog, and across gaps the chain must wait out.
func TestServerRunsMatchSingleReservations(t *testing.T) {
	env := NewEnv()
	runs, singles := &recordingHooks{}, &recordingHooks{}
	a, b := NewServer(env, "runs"), NewServer(env, "singles")
	rng := uint64(7)
	// The driver runs on a process goroutine, where t.Fatal would strand
	// the run; it reports a failure and stops instead.
	env.Go("driver", func(p *Proc) {
		for step := 0; step < 200; step++ {
			p.Sleep(Duration(splitmix64(&rng) % 3000))
			n := 1 + int(splitmix64(&rng)%20)
			d := Duration(splitmix64(&rng) % 500)
			if splitmix64(&rng)%2 == 0 {
				env.SetHooks(runs)
				start := a.ScheduleRun(n, d)
				for k := 0; k < n; k++ {
					a.Report(start+Time(k)*Time(d), start+Time(k+1)*Time(d))
				}
				env.SetHooks(singles)
				for k := 0; k < n; k++ {
					if got, want := start+Time(k+1)*Time(d), b.Schedule(d); got != want {
						t.Errorf("step %d: run service %d completes at %v, single at %v", step, k, got, want)
						return
					}
				}
			} else {
				at := make([]Time, n)
				for k := range at {
					at[k] = env.Now() + Time(splitmix64(&rng)%4000)
				}
				want := make([]Time, n)
				env.SetHooks(singles)
				for k, nb := range at {
					want[k] = b.ScheduleAt(nb, d)
				}
				env.SetHooks(runs)
				a.ScheduleChain(at, d)
				for k, end := range at {
					a.Report(end-Time(d), end)
					if end != want[k] {
						t.Errorf("step %d: chain service %d completes at %v, single at %v", step, k, end, want[k])
						return
					}
				}
			}
			if a.BusyTime() != b.BusyTime() || a.Spans() != b.Spans() || a.Backlog() != b.Backlog() {
				t.Errorf("step %d: busy %v / %v, spans %d / %d, backlog %v / %v", step,
					a.BusyTime(), b.BusyTime(), a.Spans(), b.Spans(), a.Backlog(), b.Backlog())
				return
			}
		}
	})
	env.Run(0)
	if len(runs.spans) == 0 || len(runs.spans) != len(singles.spans) {
		t.Fatalf("%d run spans, %d single spans", len(runs.spans), len(singles.spans))
	}
	for i := range runs.spans {
		r, s := runs.spans[i], singles.spans[i]
		if r.start != s.start || r.end != s.end {
			t.Fatalf("span %d: run [%v, %v), single [%v, %v)", i, r.start, r.end, s.start, s.end)
		}
	}
}
