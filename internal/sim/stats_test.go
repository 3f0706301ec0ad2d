package sim

import "testing"

// TestStatsCountEachEventKind runs a program whose schedule is known by
// hand: one At callback, a task that steps twice, and a goroutine
// process that sleeps three times in a row. The process is started by a
// hand-off from the Run caller and then drives the loop itself, so each
// of its wakeups is a self-resume.
func TestStatsCountEachEventKind(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	env.At(Time(5*Nanosecond), func() {})
	steps := 0
	env.Task("t", func(p *Proc) {
		if steps++; steps == 1 {
			p.WakeAfter(7 * Nanosecond)
		}
	})
	env.Go("solo", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Nanosecond)
		}
	})
	env.Run(0)
	got := env.Stats()
	want := Stats{
		Callbacks: 1, TaskSteps: 2, SelfResumes: 3, HandOffs: 1,
		// The callback, the task's second step and the three sleeps go
		// through the heap; the two starts at time zero do not.
		Pushes: 5, Pops: 5,
		// At time zero: the callback, the task's start and the process's.
		PeakPending: 3,
		Digest:      got.Digest,
	}
	if got != want {
		t.Errorf("Stats = %+v\nwant    %+v", got, want)
	}
	if got.Events() != 7 {
		t.Errorf("Events = %d, want 7", got.Events())
	}
}

// TestDigestNamesTheSchedule: the digest is a function of the dispatched
// schedule — equal for two runs of one program, different when every
// event moves by a picosecond or when two tasks' wakeups trade places.
func TestDigestNamesTheSchedule(t *testing.T) {
	run := func(delay Duration, swap bool) uint64 {
		env := NewEnv()
		defer env.Close()
		offsets := []Duration{0, 1}
		if swap {
			offsets = []Duration{1, 0}
		}
		for _, off := range offsets {
			woken := false
			env.Task("t", func(p *Proc) {
				if !woken {
					woken = true
					p.WakeAfter(delay + off)
				}
			})
		}
		env.Go("g", func(p *Proc) { p.Sleep(delay) })
		env.Run(0)
		return env.Stats().Digest
	}
	base := run(Microsecond, false)
	if again := run(Microsecond, false); again != base {
		t.Errorf("two runs of one program: digests %#x and %#x", base, again)
	}
	if moved := run(Microsecond+1, false); moved == base {
		t.Error("moving every event by 1 ps left the digest unchanged")
	}
	if swapped := run(Microsecond, true); swapped == base {
		t.Error("two tasks trading wakeup instants left the digest unchanged")
	}
}

// TestWorldStatsCountWindows checks the world counters on two partitions
// by hand: a timer task on one, nothing on the other, and an unused link
// that sets the 2 µs lookahead. Ticking every 1 µs to 10 µs fills five
// back-to-back windows of two ticks and a last one of one tick; ticking
// every 5 µs opens three one-tick windows, the last two past idle time.
func TestWorldStatsCountWindows(t *testing.T) {
	cases := []struct {
		period Duration
		want   WorldStats
	}{
		{Microsecond, WorldStats{Windows: 6, IdleWindows: 6, ImbalanceMax: 2, ImbalanceSum: 11}},
		{5 * Microsecond, WorldStats{Windows: 3, SkipAheads: 2, IdleWindows: 3, ImbalanceMax: 1, ImbalanceSum: 3}},
	}
	for _, c := range cases {
		w := NewWorld()
		busy, idle := w.NewPartition("busy"), w.NewPartition("idle")
		NewLink(busy, idle, 2*Microsecond, NewQueue[int](idle.Env(), 0))
		busy.Env().Task("timer", func(p *Proc) { p.WakeAfter(c.period) })
		w.Run(Time(10*Microsecond), 1)
		got := w.Stats()
		w.Close()
		ticks := uint64(10*Microsecond/c.period) + 1
		if got.Engine.TaskSteps != ticks {
			t.Errorf("period %v: %d task steps, want %d", c.period, got.Engine.TaskSteps, ticks)
		}
		got.Engine = Stats{}
		if got != c.want {
			t.Errorf("period %v: WorldStats = %+v\nwant            %+v", c.period, got, c.want)
		}
	}
}

// TestWorldStatsIdenticalAcrossWorkers: the world's counters and its
// combined digest are pure functions of the run, like its output, so
// they agree for every worker count.
func TestWorldStatsIdenticalAcrossWorkers(t *testing.T) {
	var ref WorldStats
	for _, workers := range []int{1, 2, 8} {
		w, _ := buildTrafficWorld(5, 42)
		w.Run(Time(40*Microsecond), workers)
		got := w.Stats()
		w.Close()
		if workers == 1 {
			ref = got
			if got.Windows == 0 || got.DirtyLinks == 0 || got.Engine.HandOffs == 0 {
				t.Fatalf("the traffic world did not exercise the counters: %+v", got)
			}
			continue
		}
		if got != ref {
			t.Errorf("workers=%d: %+v\nserial:    %+v", workers, got, ref)
		}
	}
}
