package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// panicMessage runs fn and returns what it panicked with ("" if it
// returned).
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestTaskMisusePanics: a blocking call on a task's Proc, and a
// task-only arming call on a goroutine Proc, panic with a message that
// names the call — before any side effect (no getter registered, no
// server time reserved).
func TestTaskMisusePanics(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	q := NewQueue[int](env, 1)
	q.TryPut(1) // full: Put would block, Get would not — both must panic
	srv := NewServer(env, "srv")

	blocking := []struct {
		call string
		fn   func(p *Proc)
	}{
		{"Proc.Sleep", func(p *Proc) { p.Sleep(Nanosecond) }},
		{"Proc.SleepUntil", func(p *Proc) { p.SleepUntil(5) }},
		{"Queue.Get", func(p *Proc) { q.Get(p) }},
		{"Queue.Put", func(p *Proc) { q.Put(p, 2) }},
		{"Server.Use", func(p *Proc) { srv.Use(p, Nanosecond) }},
	}
	var got []string
	env.Task("misuser", func(p *Proc) {
		for _, c := range blocking {
			got = append(got, panicMessage(func() { c.fn(p) }))
		}
	})
	env.Run(0)
	if len(got) != len(blocking) {
		t.Fatalf("task step ran %d of %d cases", len(got), len(blocking))
	}
	for i, c := range blocking {
		if !strings.Contains(got[i], c.call+" on task misuser") {
			t.Errorf("%s on a task: panic %q does not name the call", c.call, got[i])
		}
	}
	if q.Len() != 1 || q.getters.Len() != 0 || q.putters.Len() != 0 ||
		srv.BusyTime() != 0 || srv.Spans() != 0 || srv.Backlog() != 0 {
		t.Error("a refused blocking call left a side effect behind")
	}

	arming := []struct {
		call string
		fn   func(p *Proc)
	}{
		{"Proc.WakeAfter", func(p *Proc) { p.WakeAfter(Nanosecond) }},
		{"Proc.WakeAt", func(p *Proc) { p.WakeAt(5) }},
		{"Queue.Await", func(p *Proc) { q.Await(p) }},
		{"Queue.Offer", func(p *Proc) { q.Offer(p, 2) }},
	}
	got = got[:0]
	env.Go("goer", func(p *Proc) {
		for _, c := range arming {
			got = append(got, panicMessage(func() { c.fn(p) }))
		}
	})
	env.Run(0)
	if len(got) != len(arming) {
		t.Fatalf("process ran %d of %d cases", len(got), len(arming))
	}
	for i, c := range arming {
		if !strings.Contains(got[i], c.call+" on goroutine process goer") {
			t.Errorf("%s on a goroutine process: panic %q does not name the call", c.call, got[i])
		}
	}
	if q.Len() != 1 || q.getters.Len() != 0 || q.putters.Len() != 0 {
		t.Error("a refused arming call left a side effect behind")
	}

	mustPanic(t, "nil step", func() { env.Task("nil", nil) })
	env.Close()
	mustPanic(t, "Task after Close", func() { env.Task("late", func(*Proc) {}) })
}

// schedFixture is an Env whose one goroutine process, a, is parked on
// an empty queue, so whatever runs next — a callback or a task step —
// runs on the goroutine of Run's caller, where a test can recover its
// panic.
type schedFixture struct {
	env  *Env
	a    *Proc
	full *Queue[int] // holds one item: Get would not wait
	room *Queue[int] // unbounded: Put would not wait
	srv  *Server
	op   func(f *schedFixture)
}

func newSchedFixture() *schedFixture {
	env := NewEnv()
	park := NewQueue[int](env, 0)
	f := &schedFixture{
		env:  env,
		a:    env.Go("a", func(p *Proc) { park.Get(p) }),
		full: NewQueue[int](env, 0),
		room: NewQueue[int](env, 0),
		srv:  NewServer(env, "srv"),
	}
	env.Run(0)
	f.full.TryPut(1)
	return f
}

// callback is a named callback; helper and deeper put the blocking call
// two calls below one.
func (f *schedFixture) callback() { f.op(f) }
func (f *schedFixture) helper()   { f.deeper() }
func (f *schedFixture) deeper()   { f.op(f) }

// TestSchedulerContextMustNotBlock: a blocking call made while an
// At/After callback or a task step runs panics, naming the call and the
// process, whichever process it names and however deep below the
// callback it is made; the non-blocking calls stay legal there.
func TestSchedulerContextMustNotBlock(t *testing.T) {
	ops := []struct {
		want string
		fn   func(f *schedFixture)
	}{
		{"Proc.Sleep on a from scheduler context", func(f *schedFixture) { f.a.Sleep(Nanosecond) }},
		{"Proc.SleepUntil on a from scheduler context", func(f *schedFixture) { f.a.SleepUntil(f.env.Now() + 5) }},
		{"Queue.Get on a from scheduler context", func(f *schedFixture) { f.full.Get(f.a) }},
		{"Queue.Put on a from scheduler context", func(f *schedFixture) { f.room.Put(f.a, 2) }},
		{"Server.Use on a from scheduler context", func(f *schedFixture) { f.srv.Use(f.a, Nanosecond) }},
		{"Env.Run re-entered", func(f *schedFixture) { f.env.Run(0) }},
	}
	contexts := []struct {
		name string
		arm  func(f *schedFixture)
	}{
		{"At", func(f *schedFixture) { f.env.At(Time(Microsecond), func() { f.op(f) }) }},
		{"After", func(f *schedFixture) { f.env.After(Microsecond, func() { f.op(f) }) }},
		{"named", func(f *schedFixture) { f.env.After(Microsecond, f.callback) }},
		{"helper", func(f *schedFixture) { f.env.After(Microsecond, func() { f.helper() }) }},
		{"step", func(f *schedFixture) { f.env.Task("t", func(*Proc) { f.op(f) }) }},
	}
	for _, c := range contexts {
		for _, op := range ops {
			t.Run(c.name+"/"+strings.Fields(op.want)[0], func(t *testing.T) {
				f := newSchedFixture()
				defer f.env.Close()
				f.op = op.fn
				c.arm(f)
				if msg := panicMessage(func() { f.env.Run(0) }); !strings.Contains(msg, op.want) {
					t.Errorf("panic %q, want one containing %q", msg, op.want)
				}
			})
		}
	}

	// TryPut, TryGet, At and Go from a callback; Await and
	// WakeAfter from a step.
	f := newSchedFixture()
	defer f.env.Close()
	var log []string
	f.env.Task("t", func(p *Proc) {
		if _, ok := f.room.Await(p); ok {
			log = append(log, "step")
			p.WakeAfter(Nanosecond)
		}
	})
	f.env.After(Microsecond, func() {
		f.room.TryPut(2)
		f.full.TryGet()
		f.env.At(f.env.Now(), func() { log = append(log, "at") })
		f.env.Go("b", func(p *Proc) {
			p.Sleep(Nanosecond)
			log = append(log, "b")
		})
	})
	if msg := panicMessage(func() { f.env.Run(0) }); msg != "" {
		t.Fatalf("non-blocking calls in scheduler context panicked: %s", msg)
	}
	if got := strings.Join(log, " "); got != "step at b" || f.full.Len() != 0 || f.room.Len() != 0 {
		t.Errorf("ran %q with queues at %d and %d, want \"step at b\" with both empty", got, f.full.Len(), f.room.Len())
	}
}

// runMixed runs one scenario in which goroutine processes, At callbacks
// and two more processes — a periodic timer and a queue consumer, spawned
// as tasks or as goroutines — share an Env, and returns the order in
// which everything executed. The scenario is built from same-instant
// ties: the timer's period equals the producer's, the consumer's service
// time makes it finish on the producer's instants, two consumers of
// different forms wait on one queue, and an At callback wakes them with
// TryPut. A putter of either form fills a bounded queue that a goroutine
// drains with TryGet and DrainAppend; fullOffers counts the task
// putter's offers that found it full.
func runMixed(tasks bool) (log []string, fullOffers int) {
	env := NewEnv()
	defer env.Close()
	rec := func(who string, v int) {
		log = append(log, fmt.Sprintf("%d %s %d", env.Now(), who, v))
	}
	q := NewQueue[int](env, 0)

	// Always a goroutine process: produces at 10, 20, ... 60 ns, two
	// items at once on even rounds.
	env.Go("producer", func(p *Proc) {
		for i := 1; i <= 6; i++ {
			p.Sleep(10 * Nanosecond)
			rec("produce", i)
			q.TryPut(i)
			if i%2 == 0 {
				q.TryPut(100 + i)
			}
		}
	})
	// Always a goroutine process: the second consumer of q.
	env.Go("rival", func(p *Proc) {
		for {
			v := q.Get(p)
			rec("rival", v)
			p.Sleep(15 * Nanosecond)
		}
	})
	// Scheduler context: wakes whichever consumer waits first.
	env.At(Time(25*Nanosecond), func() {
		rec("callback", 0)
		q.TryPut(1000)
	})
	env.At(Time(30*Nanosecond), func() { rec("callback", 1) })

	// A bounded queue, full at once: its putter waits on it, and a
	// goroutine drainer makes room with TryGet and with DrainAppend.
	bq := NewQueue[int](env, 2)
	env.Go("drainer", func(p *Proc) {
		var buf []int
		for round := 0; round < 4; round++ {
			p.Sleep(7 * Nanosecond)
			if v, ok := bq.TryGet(); ok {
				rec("tryget", v)
			}
			p.Sleep(4 * Nanosecond)
			buf = bq.DrainAppend(buf[:0], 2)
			for _, v := range buf {
				rec("drain", v)
			}
		}
	})

	if tasks {
		put := 0
		env.Task("putter", func(p *Proc) {
			for put < 9 {
				if !bq.Offer(p, put) {
					fullOffers++
					return
				}
				rec("put", put)
				if put++; put%3 == 0 {
					p.WakeAfter(2 * Nanosecond)
					return
				}
			}
		})
		ticks := 0
		env.Task("timer", func(p *Proc) {
			if ticks > 0 {
				rec("tick", ticks)
			}
			if ticks++; ticks <= 7 {
				p.WakeAfter(10 * Nanosecond)
			}
		})
		busy, cur := false, 0
		env.Task("consumer", func(p *Proc) {
			if busy {
				busy = false
				rec("consumed", cur)
			}
			v, ok := q.Await(p)
			if !ok {
				return
			}
			rec("consumer", v)
			busy, cur = true, v
			p.WakeAfter(10 * Nanosecond)
		})
	} else {
		env.Go("putter", func(p *Proc) {
			for i := 0; i < 9; i++ {
				bq.Put(p, i)
				rec("put", i)
				if (i+1)%3 == 0 {
					p.Sleep(2 * Nanosecond)
				}
			}
		})
		env.Go("timer", func(p *Proc) {
			for i := 1; i <= 7; i++ {
				p.Sleep(10 * Nanosecond)
				rec("tick", i)
			}
		})
		env.Go("consumer", func(p *Proc) {
			for {
				v := q.Get(p)
				rec("consumer", v)
				p.Sleep(10 * Nanosecond)
				rec("consumed", v)
			}
		})
	}
	env.Run(0)
	return log, fullOffers
}

// TestMixedEnvMatchesGoroutineTwin: tasks coexist with goroutine
// processes and callbacks in one Env, and because a task issues the same
// schedule calls as the goroutine process it stands in for, the mixed
// Env executes in exactly the order of its all-goroutine twin.
func TestMixedEnvMatchesGoroutineTwin(t *testing.T) {
	want, _ := runMixed(false)
	got, fullOffers := runMixed(true)
	if len(want) < 30 {
		t.Fatalf("scenario too small to mean anything: %d records", len(want))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("mixed Env diverged from its all-goroutine twin:\n got:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, who := range []string{"tick", "consumer", "consumed", "rival", "callback", "put", "tryget", "drain"} {
		if !strings.Contains(strings.Join(want, "\n"), " "+who+" ") {
			t.Errorf("scenario never ran %q", who)
		}
	}
	// The task putter found the queue full, and both TryGet and
	// DrainAppend woke it: a put at the instant of each.
	woken := map[string]bool{}
	at := map[string]string{}
	for _, r := range want {
		f := strings.Fields(r)
		if f[1] == "put" && at[f[0]] != "" {
			woken[at[f[0]]] = true
		}
		if f[1] == "tryget" || f[1] == "drain" {
			at[f[0]] = f[1]
		}
	}
	if fullOffers < 2 || !woken["tryget"] || !woken["drain"] {
		t.Errorf("the putter offered to a full queue %d times; woken by TryGet %v, by DrainAppend %v",
			fullOffers, woken["tryget"], woken["drain"])
	}
}

// buildTaskRing is a world of n partitions holding only tasks: each has a
// timer task that sends its tick count to the next partition and a
// receiver task that sums what arrives.
func buildTaskRing(n int) (w *World, sums []int) {
	w = NewWorld()
	parts := make([]*Partition, n)
	inbox := make([]*Queue[int], n)
	for i := range parts {
		parts[i] = w.NewPartition(fmt.Sprintf("p%d", i))
		inbox[i] = NewQueue[int](parts[i].Env(), 0)
	}
	sums = make([]int, n)
	for i, pt := range parts {
		link := NewLink(pt, parts[(i+1)%n], 2*Microsecond, inbox[(i+1)%n])
		ticks := 0
		pt.Env().Task("timer", func(p *Proc) {
			if ticks > 0 {
				link.Send(p, ticks)
			}
			ticks++
			p.WakeAfter(Duration(i+1) * 300 * Nanosecond)
		})
		pt.Env().Task("recv", func(p *Proc) {
			for {
				v, ok := inbox[i].Await(p)
				if !ok {
					return
				}
				sums[i] += v
			}
		})
	}
	return w, sums
}

// TestWorldOfTasksHoldsNoGoroutines: a task has no goroutine, so a world
// whose partitions hold only tasks adds none — not while it runs
// serially, and not after Close, whatever the worker count (the
// per-window worker goroutines are joined before Run returns).
func TestWorldOfTasksHoldsNoGoroutines(t *testing.T) {
	var ref []int
	for _, workers := range []int{1, 3} {
		base := runtime.NumGoroutine()
		w, sums := buildTaskRing(4)
		w.Run(Time(50*Microsecond), workers)
		if workers == 1 {
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("serial run of a task-only world holds %d goroutines, started with %d", n, base)
			}
		}
		w.Close()
		waitGoroutines(t, base)
		if sums[0] == 0 {
			t.Fatal("task ring delivered nothing")
		}
		if ref == nil {
			ref = sums
		} else if fmt.Sprint(sums) != fmt.Sprint(ref) {
			t.Errorf("workers=%d: sums %v, want %v", workers, sums, ref)
		}
	}
}

// TestWorldSerialWindowsAllocateNothing: with one worker a window is a
// loop over the partitions and a bitmap walk. A run of many windows over
// a warmed-up task world must not allocate — in particular nothing that
// exists only for the fan-out (goroutine captures, the WaitGroup) may
// reach the heap on the one-worker schedule, where it would be paid
// once per window.
func TestWorldSerialWindowsAllocateNothing(t *testing.T) {
	w, sums := buildTaskRing(4)
	defer w.Close()
	until := Time(100 * Microsecond)
	w.Run(until, 1) // grow the heaps, link buffers and dirty lists
	before := sums[0]
	if n := testing.AllocsPerRun(20, func() {
		until += Time(40 * Microsecond) // 20 windows of the 2 µs lookahead
		w.Run(until, 1)
	}); n != 0 {
		t.Errorf("World.Run, 1 worker: %v allocs per 20 windows, want 0", n)
	}
	if sums[0] == before {
		t.Fatal("task ring delivered nothing during the measured runs")
	}
}

// TestTaskWakeupsAllocateNothing: a task's timed wakeup and a queue
// hand-off to a task are typed events dispatched by a function call —
// neither allocates in the steady state.
func TestTaskWakeupsAllocateNothing(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	ticks := 0
	env.Task("timer", func(p *Proc) {
		ticks++
		p.WakeAfter(10 * Nanosecond)
	})
	env.Run(Time(Microsecond)) // grow the event heap's backing array
	before := ticks
	if n := testing.AllocsPerRun(200, func() { env.Run(env.Now() + Time(10*Nanosecond)) }); n != 0 {
		t.Errorf("task timer wakeup: %v allocs per wakeup, want 0", n)
	}
	if ticks-before < 200 {
		t.Fatalf("timer ticked %d times over 200 runs", ticks-before)
	}

	env2 := NewEnv()
	defer env2.Close()
	q := NewQueue[int](env2, 0)
	sum := 0
	env2.Task("getter", func(p *Proc) {
		for {
			v, ok := q.Await(p)
			if !ok {
				return
			}
			sum += v
		}
	})
	env2.Run(0)
	if n := testing.AllocsPerRun(200, func() {
		q.TryPut(1)
		env2.Run(0)
	}); n != 0 {
		t.Errorf("queue hand-off to a task: %v allocs per item, want 0", n)
	}
	if sum < 200 {
		t.Fatalf("getter received %d of 200 items", sum)
	}

	env3 := NewEnv()
	defer env3.Close()
	bq := NewQueue[int](env3, 1)
	puts := 0
	env3.Task("putter", func(p *Proc) {
		for bq.Offer(p, 1) {
			puts++
		}
	})
	env3.Run(0)
	if n := testing.AllocsPerRun(200, func() {
		bq.TryGet()
		env3.Run(0)
	}); n != 0 {
		t.Errorf("a task's put into a full queue: %v allocs per item, want 0", n)
	}
	if puts < 200 {
		t.Fatalf("putter put %d of 200 items", puts)
	}
}

// The four benchmarks below record what one wakeup costs in each process
// form. Two processes alternate in every one of them, as a fabric node's
// generator and forwarder do, so a goroutine process pays its switch on
// every wakeup (a lone sleeper would resume without one). ns/op is per
// wakeup (Sleep/Wake) or per item handed off (QueueTo*: one timer task
// feeds two getters in turn, and its own wakeup is in both numbers).

func BenchmarkProcSleep(b *testing.B) {
	env := NewEnv()
	defer env.Close()
	for i := 0; i < 2; i++ {
		env.Go("sleeper", func(p *Proc) {
			p.Sleep(Duration(i) * 5 * Nanosecond)
			for {
				p.Sleep(10 * Nanosecond)
			}
		})
	}
	env.Run(Time(Microsecond))
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(env.Now() + Time(b.N/2)*Time(10*Nanosecond))
}

func BenchmarkTaskWake(b *testing.B) {
	env := NewEnv()
	defer env.Close()
	for i := 0; i < 2; i++ {
		started := false
		env.Task("timer", func(p *Proc) {
			if !started {
				started = true
				p.WakeAfter(Duration(i)*5*Nanosecond + 10*Nanosecond)
				return
			}
			p.WakeAfter(10 * Nanosecond)
		})
	}
	env.Run(Time(Microsecond))
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(env.Now() + Time(b.N/2)*Time(10*Nanosecond))
}

// benchProducer spawns the timer task that feeds the two queues in turn,
// one item every 10 ns.
func benchProducer(env *Env, qs [2]*Queue[int]) {
	n := 0
	env.Task("producer", func(p *Proc) {
		qs[n&1].TryPut(1)
		n++
		p.WakeAfter(10 * Nanosecond)
	})
}

func BenchmarkQueueToProc(b *testing.B) {
	env := NewEnv()
	defer env.Close()
	var qs [2]*Queue[int]
	sum := 0
	for i := range qs {
		qs[i] = NewQueue[int](env, 0)
		env.Go("getter", func(p *Proc) {
			for {
				sum += qs[i].Get(p)
			}
		})
	}
	benchProducer(env, qs)
	env.Run(Time(Microsecond))
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(env.Now() + Time(b.N)*Time(10*Nanosecond))
}

func BenchmarkQueueToTask(b *testing.B) {
	env := NewEnv()
	defer env.Close()
	var qs [2]*Queue[int]
	sum := 0
	for i := range qs {
		qs[i] = NewQueue[int](env, 0)
		env.Task("getter", func(p *Proc) {
			for {
				v, ok := qs[i].Await(p)
				if !ok {
					return
				}
				sum += v
			}
		})
	}
	benchProducer(env, qs)
	env.Run(Time(Microsecond))
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(env.Now() + Time(b.N)*Time(10*Nanosecond))
}
