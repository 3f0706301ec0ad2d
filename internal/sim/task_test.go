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
	sig := NewSignal(env)

	blocking := []struct {
		call string
		fn   func(p *Proc)
	}{
		{"Proc.Sleep", func(p *Proc) { p.Sleep(Nanosecond) }},
		{"Proc.SleepUntil", func(p *Proc) { p.SleepUntil(5) }},
		{"Queue.Get", func(p *Proc) { q.Get(p) }},
		{"Queue.Put", func(p *Proc) { q.Put(p, 2) }},
		{"Server.Use", func(p *Proc) { srv.Use(p, Nanosecond) }},
		{"Signal.Wait", func(p *Proc) { sig.Wait(p) }},
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
		srv.BusyTime() != 0 || sig.Waiters() != 0 {
		t.Error("a refused blocking call left a side effect behind")
	}

	arming := []struct {
		call string
		fn   func(p *Proc)
	}{
		{"Proc.WakeAfter", func(p *Proc) { p.WakeAfter(Nanosecond) }},
		{"Queue.Await", func(p *Proc) { q.Await(p) }},
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
	if q.Len() != 1 || q.getters.Len() != 0 {
		t.Error("a refused arming call left a side effect behind")
	}

	mustPanic(t, "nil step", func() { env.Task("nil", nil) })
	env.Close()
	mustPanic(t, "Task after Close", func() { env.Task("late", func(*Proc) {}) })
}

// runMixed runs one scenario in which goroutine processes, At callbacks
// and two more processes — a periodic timer and a queue consumer, spawned
// as tasks or as goroutines — share an Env, and returns the order in
// which everything executed. The scenario is built from same-instant
// ties: the timer's period equals the producer's, the consumer's service
// time makes it finish on the producer's instants, two consumers of
// different forms wait on one queue, and an At callback wakes them with
// TryPut.
func runMixed(tasks bool) []string {
	env := NewEnv()
	defer env.Close()
	var log []string
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

	if tasks {
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
	return log
}

// TestMixedEnvMatchesGoroutineTwin: tasks coexist with goroutine
// processes and callbacks in one Env, and because a task issues the same
// schedule calls as the goroutine process it stands in for, the mixed
// Env executes in exactly the order of its all-goroutine twin.
func TestMixedEnvMatchesGoroutineTwin(t *testing.T) {
	want := runMixed(false)
	got := runMixed(true)
	if len(want) < 30 {
		t.Fatalf("scenario too small to mean anything: %d records", len(want))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("mixed Env diverged from its all-goroutine twin:\n got:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, who := range []string{"tick", "consumer", "consumed", "rival", "callback"} {
		if !strings.Contains(strings.Join(want, "\n"), " "+who+" ") {
			t.Errorf("scenario never ran %q", who)
		}
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
