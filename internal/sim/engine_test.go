package sim

import "testing"

// TestSameInstantWakeupFIFO: processes whose wakeups land on the same
// instant run in the order the wakeups were scheduled (seq order), for
// both heap-resident events (scheduled in the past) and immediate events.
func TestSameInstantWakeupFIFO(t *testing.T) {
	env := NewEnv()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		env.Go("p", func(p *Proc) {
			p.Sleep(10 * Nanosecond) // all wakeups collide at t=10ns
			order = append(order, i)
		})
	}
	env.Run(0)
	if len(order) != 8 {
		t.Fatalf("ran %d procs, want 8", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("wake order %v, want 0..7 (FIFO by schedule order)", order)
		}
	}
}

// TestSameInstantImmediateFIFO covers the immediate-ring path: wakeups
// scheduled *at* the current instant (queue hand-offs) run in FIFO order
// after all events that were already in the heap for that instant.
func TestSameInstantImmediateFIFO(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 0)
	var order []string
	for i := 0; i < 4; i++ {
		name := string(rune('a' + i))
		env.Go(name, func(p *Proc) {
			q.Get(p)
			order = append(order, name)
		})
	}
	env.Go("firer", func(p *Proc) {
		p.Sleep(5 * Nanosecond)
		for i := 0; i < 4; i++ {
			q.TryPut(i) // hands off to a parked getter: an immediate wakeup at t=5ns
		}
	})
	env.Go("late", func(p *Proc) {
		p.Sleep(5 * Nanosecond) // a heap event at t=5ns, scheduled after firer's
		order = append(order, "late")
	})
	env.Run(0)
	want := []string{"late", "a", "b", "c", "d"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestDrainAppendWakesAtMostN: draining n items must release at most n
// blocked putters; the rest stay parked.
func TestDrainAppendWakesAtMostN(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 2)
	var completed []int
	for i := 0; i < 5; i++ {
		i := i
		env.Go("putter", func(p *Proc) {
			q.Put(p, i)
			completed = append(completed, i)
		})
	}
	var drained []int
	env.At(Time(10*Nanosecond), func() {
		drained = q.DrainAppend(nil, 2)
	})
	env.Run(0)
	// Putters 0 and 1 fill the queue without blocking; the drain of two
	// items wakes putters 2 and 3 (FIFO); putter 4 must still be parked.
	if len(drained) != 2 || drained[0] != 0 || drained[1] != 1 {
		t.Fatalf("drained %v, want [0 1]", drained)
	}
	if len(completed) != 4 {
		t.Fatalf("%d putters completed (%v), want 4: drain of 2 must wake at most 2",
			len(completed), completed)
	}
	if q.putters.Len() != 1 {
		t.Fatalf("%d putters still parked, want 1", q.putters.Len())
	}
}

// TestTryOpsFromSchedulerContext: TryPut and TryGet never block, so they
// are callable from At/After callbacks (scheduler context), and a TryPut
// there still wakes a blocked getter.
func TestTryOpsFromSchedulerContext(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 0)
	var got int
	env.Go("getter", func(p *Proc) {
		got = q.Get(p) // blocks until the callback's TryPut
	})
	env.At(Time(5*Nanosecond), func() {
		if !q.TryPut(42) {
			t.Error("TryPut failed on an unbounded queue")
		}
	})
	var polled, ok = 0, false
	env.At(Time(10*Nanosecond), func() {
		q.TryPut(7)
		polled, ok = q.TryGet()
	})
	env.Run(0)
	if got != 42 {
		t.Errorf("getter received %d, want 42 (woken by scheduler-context TryPut)", got)
	}
	if !ok || polled != 7 {
		t.Errorf("TryGet from callback = %d,%v, want 7,true", polled, ok)
	}
}

// TestNegativeSleepStillYields: a Sleep with a negative (or zero)
// duration must not let the process run straight through — it yields,
// giving already-scheduled same-instant events their turn first.
func TestNegativeSleepStillYields(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("p1", func(p *Proc) {
		order = append(order, "p1-before")
		p.Sleep(-5 * Nanosecond)
		order = append(order, "p1-after")
	})
	env.Go("p2", func(p *Proc) {
		order = append(order, "p2")
	})
	env.Run(0)
	want := []string{"p1-before", "p2", "p1-after"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v: negative Sleep must yield", order, want)
		}
	}
	if env.Now() != 0 {
		t.Errorf("clock at %v after negative sleep, want 0 (clamped)", env.Now())
	}
}

// TestDrainedQueueDoesNotGrowBacking: an unbounded queue cycled through
// put/get bursts must reach a steady-state ring size, not grow its
// backing array with every burst (the old shift-by-reslice
// representation reallocated continuously).
func TestDrainedQueueDoesNotGrowBacking(t *testing.T) {
	env := NewEnv()
	q := NewQueue[*int](env, 0)
	env.Go("churn", func(p *Proc) {
		v := 1
		for i := 0; i < 1000; i++ {
			for j := 0; j < 3; j++ {
				q.Put(p, &v)
			}
			for j := 0; j < 3; j++ {
				q.Get(p)
			}
			p.Sleep(Nanosecond)
		}
	})
	env.Run(0)
	if c := len(q.items.buf); c > 8 {
		t.Errorf("ring capacity %d after 1000 bursts of 3, want <= 8", c)
	}
	if q.items.Len() != 0 {
		t.Fatalf("queue not drained: %d items", q.items.Len())
	}
}

// TestRingClearsVacatedSlots: PopFront must zero the vacated slot so a
// drained ring of pointers retains nothing (the old slice queue kept the
// head reference alive in the backing array).
func TestRingClearsVacatedSlots(t *testing.T) {
	var r Ring[*int]
	for i := 0; i < 20; i++ {
		v := i
		r.PushBack(&v)
	}
	for i := 0; i < 5; i++ {
		if p := r.PopFront(); *p != i {
			t.Fatalf("PopFront = %d, want %d", *p, i)
		}
	}
	live := 0
	for i := 0; i < len(r.buf); i++ {
		if r.buf[i] != nil {
			live++
		}
	}
	if live != r.Len() {
		t.Errorf("%d live pointers in backing array, want %d: vacated slots must be cleared",
			live, r.Len())
	}
	for r.Len() > 0 {
		r.PopFront()
	}
	for i := 0; i < len(r.buf); i++ {
		if r.buf[i] != nil {
			t.Fatalf("drained ring retains a pointer at slot %d", i)
		}
	}
}

// TestRingWraparound exercises growth while head > 0 (the copy-out in
// grow must linearize the wrapped contents) and FIFO order across wraps.
func TestRingWraparound(t *testing.T) {
	var r Ring[int]
	next, expect := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			r.PushBack(next)
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if got := r.PopFront(); got != expect {
				t.Fatalf("PopFront = %d, want %d", got, expect)
			}
			expect++
		}
	}
	push(6)
	pop(4)   // head advances
	push(10) // wraps, then grows with head > 0
	pop(12)
	push(3)
	pop(3)
	if r.Len() != 0 {
		t.Fatalf("ring not empty: %d", r.Len())
	}
}
