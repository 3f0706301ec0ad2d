package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// splitmix64 is the test-local deterministic PRNG (same generator the
// model packages use for seeded randomness).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// buildTrafficWorld constructs a small all-to-all message-bouncing world:
// n partitions, each with an inbox, full mesh of links with varied
// latencies, a seeded generator process per partition, and a forwarder
// that bounces each message until its hop count drains. Every receipt is
// logged partition-locally; the returned render function merges the logs
// in partition order into one byte string.
func buildTrafficWorld(n int, seed uint64) (w *World, render func() string) {
	w = NewWorld()
	type msg struct {
		val  int
		hops int
	}
	parts := make([]*Partition, n)
	inboxes := make([]*Queue[msg], n)
	logs := make([][]string, n)
	for i := 0; i < n; i++ {
		parts[i] = w.NewPartition(fmt.Sprintf("node%d", i))
		inboxes[i] = NewQueue[msg](parts[i].Env(), 0)
	}
	links := make([][]*Link[msg], n)
	for i := 0; i < n; i++ {
		links[i] = make([]*Link[msg], n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			// Varied latencies: lookahead is the minimum (here 30ns).
			lat := Duration(30+10*((i+j)%4)) * Nanosecond
			links[i][j] = NewLink(parts[i], parts[j], lat, inboxes[j])
		}
	}
	for i := 0; i < n; i++ {
		i := i
		env := parts[i].Env()
		rng := seed + uint64(i)*0x1234567
		env.Go("gen", func(p *Proc) {
			state := rng
			for k := 0; k < 40; k++ {
				p.Sleep(Duration(splitmix64(&state)%500) * Nanosecond)
				dst := int(splitmix64(&state) % uint64(n))
				if dst == i {
					dst = (dst + 1) % n
				}
				links[i][dst].Post(p.Now(), p.Now(), msg{val: i*1000 + k, hops: 3})
			}
		})
		env.Go("fwd", func(p *Proc) {
			state := rng ^ 0xabcdef
			for {
				m := inboxes[i].Get(p)
				logs[i] = append(logs[i], fmt.Sprintf("n%d t=%d v=%d h=%d", i, p.Now(), m.val, m.hops))
				if m.hops == 0 {
					continue
				}
				p.Sleep(Duration(splitmix64(&state)%50) * Nanosecond) // forwarding work
				dst := int(splitmix64(&state) % uint64(n))
				if dst == i {
					dst = (dst + 1) % n
				}
				links[i][dst].Post(p.Now(), p.Now(), msg{val: m.val, hops: m.hops - 1})
			}
		})
	}
	render = func() string {
		out := ""
		for i := 0; i < n; i++ {
			for _, line := range logs[i] {
				out += line + "\n"
			}
		}
		return out
	}
	return w, render
}

// TestWorldByteIdenticalAcrossWorkers is the partition analogue of the
// harness's -j8==-j1 guarantee: the same seeded world produces
// byte-identical merged logs no matter how many host goroutines drive
// its partitions.
func TestWorldByteIdenticalAcrossWorkers(t *testing.T) {
	const horizon = Time(40 * Microsecond)
	var ref string
	for _, workers := range []int{1, 2, 8} {
		w, render := buildTrafficWorld(5, 42)
		end := w.Run(horizon, workers)
		if end != horizon {
			t.Fatalf("workers=%d: Run returned %v, want %v", workers, end, horizon)
		}
		got := render()
		w.Close()
		if got == "" {
			t.Fatalf("workers=%d: empty log — model did not run", workers)
		}
		if workers == 1 {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("workers=%d output differs from serial reference", workers)
		}
	}
}

// TestWorldHorizonExactEvent covers the torn-window edge case: a send
// executed exactly at a window's final instant still arrives exactly
// latency later, identically at every worker count. With lookahead W,
// the first window is [0, W-1]; the sender below transmits at W-1 (the
// window's last executable instant) and at W (the first instant of the
// next window).
func TestWorldHorizonExactEvent(t *testing.T) {
	const W = Duration(100 * Nanosecond)
	type arrival struct{ at Time }
	run := func(workers int) []Time {
		w := NewWorld()
		defer w.Close()
		a := w.NewPartition("a")
		b := w.NewPartition("b")
		inbox := NewQueue[int](b.Env(), 0)
		l := NewLink(a, b, W, inbox)
		a.Env().Go("send", func(p *Proc) {
			p.SleepUntil(Time(W) - 1) // last instant of window [0, W-1]
			l.Post(p.Now(), p.Now(), 1)
			p.Sleep(1) // first instant of the next window
			l.Post(p.Now(), p.Now(), 2)
		})
		var got []Time
		b.Env().Go("recv", func(p *Proc) {
			for {
				inbox.Get(p)
				got = append(got, p.Now())
			}
		})
		w.Run(Time(4*W), workers)
		return got
	}
	want := []Time{Time(W) - 1 + Time(W), Time(W) + Time(W)}
	for _, workers := range []int{1, 2} {
		got := run(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d arrivals %v, want %v", workers, len(got), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: arrivals %v, want %v", workers, got, want)
			}
		}
	}
}

// TestWorldNoLinksSingleWindow: a world with no links has no lookahead
// bound, so unlinked partitions advance to the horizon in one window.
func TestWorldNoLinksSingleWindow(t *testing.T) {
	w := NewWorld()
	defer w.Close()
	var ticks [2]int
	for i := 0; i < 2; i++ {
		i := i
		pt := w.NewPartition(fmt.Sprintf("p%d", i))
		pt.Env().Go("tick", func(p *Proc) {
			for {
				p.Sleep(Microsecond)
				ticks[i]++
			}
		})
	}
	w.Run(Time(10*Microsecond), 2)
	for i, n := range ticks {
		if n != 10 {
			t.Fatalf("partition %d ticked %d times, want 10", i, n)
		}
	}
	for _, pt := range w.Partitions() {
		if pt.Env().Now() != Time(10*Microsecond) {
			t.Fatalf("partition %s clock %v, want horizon", pt.Name(), pt.Env().Now())
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestWorldConstructionValidation: zero/negative-latency links, links
// across worlds or within one partition, foreign destination queues, and
// non-positive horizons are all rejected loudly.
func TestWorldConstructionValidation(t *testing.T) {
	w := NewWorld()
	defer w.Close()
	a := w.NewPartition("a")
	b := w.NewPartition("b")
	inboxB := NewQueue[int](b.Env(), 0)
	inboxA := NewQueue[int](a.Env(), 0)
	mustPanic(t, "zero-latency link", func() { NewLink(a, b, 0, inboxB) })
	mustPanic(t, "negative-latency link", func() { NewLink(a, b, -Nanosecond, inboxB) })
	mustPanic(t, "self-link", func() { NewLink(a, a, Nanosecond, inboxA) })
	mustPanic(t, "foreign dst queue", func() { NewLink(a, b, Nanosecond, inboxA) })
	w2 := NewWorld()
	defer w2.Close()
	c := w2.NewPartition("c")
	mustPanic(t, "cross-world link", func() { NewLink(a, c, Nanosecond, NewQueue[int](c.Env(), 0)) })
	mustPanic(t, "zero horizon", func() { w.Run(0, 1) })
	mustPanic(t, "negative horizon", func() { w.Run(-1, 1) })
}

// TestWorldLookahead: the lookahead is the minimum link latency.
func TestWorldLookahead(t *testing.T) {
	w := NewWorld()
	defer w.Close()
	a := w.NewPartition("a")
	b := w.NewPartition("b")
	if w.Lookahead() != 0 {
		t.Fatalf("lookahead %v before links, want 0", w.Lookahead())
	}
	NewLink(a, b, 5*Microsecond, NewQueue[int](b.Env(), 0))
	NewLink(b, a, 2*Microsecond, NewQueue[int](a.Env(), 0))
	if w.Lookahead() != 2*Microsecond {
		t.Fatalf("lookahead %v, want 2us (min link latency)", w.Lookahead())
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// `want` (other tests' stragglers can only inflate the baseline, so a
// one-sided bound keeps this robust).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count stuck at %d, want <= %d (leak)", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// goroutinesIn counts, over the stacks of all goroutines, the frames of
// functions whose name contains name.
func goroutinesIn(name string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), name)
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestEnvCloseReleasesBlockedProcs is the goroutine-leak regression test
// for the Env.Run abandonment bug: processes still blocked on queues
// when the event heap drains used to park forever, leaking one goroutine
// each per Env. Close must unwind them (running their defers) and return
// the process count to the baseline. The getters are counted by their
// own frames, not against the process-wide count, which goroutines of
// other tests that are still exiting would lower.
func TestEnvCloseReleasesBlockedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	const blocked = 50
	const getter = "sim.TestEnvCloseReleasesBlockedProcs.func1("
	env := NewEnv()
	q := NewQueue[int](env, 0)
	unwound := 0
	for i := 0; i < blocked; i++ {
		env.Go("getter", func(p *Proc) {
			defer func() { unwound++ }()
			q.Get(p) // blocks forever: nothing ever Puts
		})
	}
	env.Go("done", func(p *Proc) { p.Sleep(Microsecond) })
	env.Run(0)
	// The getters are abandoned: their goroutines are still parked.
	if n := goroutinesIn(getter); n != blocked {
		t.Fatalf("%d getters parked before Close, want %d", n, blocked)
	}
	env.Close()
	env.Close() // idempotent
	if unwound != blocked {
		t.Fatalf("Close unwound %d blocked procs (ran defers), want %d", unwound, blocked)
	}
	waitGoroutines(t, base)
	for deadline := time.Now().Add(5 * time.Second); goroutinesIn(getter) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d getters still parked after Close", goroutinesIn(getter))
		}
	}
	mustPanic(t, "Run after Close", func() { env.Run(0) })
	mustPanic(t, "Go after Close", func() { env.Go("late", func(p *Proc) {}) })
}

// TestEnvCloseBeforeFirstRun: processes that were spawned but never
// scheduled (Run never called) are parked at their initial resume; Close
// must release them too.
func TestEnvCloseBeforeFirstRun(t *testing.T) {
	base := runtime.NumGoroutine()
	env := NewEnv()
	ran := false
	for i := 0; i < 10; i++ {
		env.Go("unstarted", func(p *Proc) { ran = true })
	}
	env.Close()
	if ran {
		t.Fatal("Close must not run never-scheduled process bodies")
	}
	waitGoroutines(t, base)
}

// TestWorldCloseReleasesAllPartitions: World.Close drains every
// partition's parked processes.
func TestWorldCloseReleasesAllPartitions(t *testing.T) {
	base := runtime.NumGoroutine()
	w, _ := buildTrafficWorld(4, 7)
	w.Run(Time(5*Microsecond), 4)
	w.Close()
	w.Close() // idempotent
	waitGoroutines(t, base)
}

// buildSparseWorld is a full mesh of links where almost all of them stay
// idle: of n partitions only 0↔(n-1) ping-pong and 1 fires a single
// burst at 2. A dirty-tracking bug that skips or reorders flushes shows
// up here where a dense workload would mask it.
func buildSparseWorld(n int) (w *World, render func() string) {
	w = NewWorld()
	parts := make([]*Partition, n)
	inboxes := make([]*Queue[int], n)
	logs := make([][]string, n)
	for i := 0; i < n; i++ {
		parts[i] = w.NewPartition(fmt.Sprintf("node%d", i))
		inboxes[i] = NewQueue[int](parts[i].Env(), 0)
	}
	links := make([][]*Link[int], n)
	for i := 0; i < n; i++ {
		links[i] = make([]*Link[int], n)
		for j := 0; j < n; j++ {
			if i != j {
				links[i][j] = NewLink(parts[i], parts[j], Duration(40+7*((i+j)%3))*Nanosecond, inboxes[j])
			}
		}
	}
	for i := 0; i < n; i++ {
		i := i
		env := parts[i].Env()
		env.Go("echo", func(p *Proc) {
			for {
				v := inboxes[i].Get(p)
				logs[i] = append(logs[i], fmt.Sprintf("n%d t=%d v=%d", i, p.Now(), v))
				if i == n-1 && v > 0 {
					p.Sleep(15 * Nanosecond)
					links[i][0].Post(p.Now(), p.Now(), v-1) // pong back
				}
			}
		})
	}
	parts[0].Env().Go("ping", func(p *Proc) {
		for k := 12; k > 0; k -= 2 {
			links[0][n-1].Post(p.Now(), p.Now(), k)
			v := inboxes[0].Get(p)
			logs[0] = append(logs[0], fmt.Sprintf("n0 got t=%d v=%d", p.Now(), v))
		}
	})
	parts[1].Env().Go("burst", func(p *Proc) {
		p.SleepUntil(Time(3 * Microsecond))
		for k := 0; k < 5; k++ {
			links[1][2].Post(p.Now(), p.Now(), 100+k)
		}
	})
	render = func() string {
		out := ""
		for i := 0; i < n; i++ {
			for _, line := range logs[i] {
				out += line + "\n"
			}
		}
		return out
	}
	return w, render
}

// buildStarWorld is 130 source partitions with one link each into a
// hub, all of one latency, so sends made at one instant arrive at one
// instant and the hub's log order is the barrier's flush order. Link k
// leaves partition 1+(37k mod 130): the barrier meets the dirty indexes
// out of order and has to put them back in creation order itself. Two
// rounds of senders: at 5 ns the first and last bits of the bitmap's
// first two words, both neighbours of each word boundary, and the lone
// bits of the third word; at 1 µs a different, smaller set (a bit left
// set by the first round would flush a clean link — harmless — but a
// bit lost would drop a message).
func buildStarWorld() (w *World, render func() string, want string) {
	const links = 130
	const lat = 50 * Nanosecond
	rounds := []struct {
		at   Time
		idxs []int
	}{
		{Time(5 * Nanosecond), []int{0, 1, 62, 63, 64, 65, 126, 127, 128, 129}},
		{Time(Microsecond), []int{2, 64, 127}},
	}
	w = NewWorld()
	hub := w.NewPartition("hub")
	inbox := NewQueue[int](hub.Env(), 0)
	srcs := make([]*Partition, links)
	for i := range srcs {
		srcs[i] = w.NewPartition(fmt.Sprintf("src%d", i))
	}
	out := ""
	hub.Env().Go("log", func(p *Proc) {
		for {
			v := inbox.Get(p)
			out += fmt.Sprintf("t=%d link=%d\n", p.Now(), v)
		}
	})
	for k := 0; k < links; k++ {
		k := k
		src := srcs[37*k%links]
		l := NewLink(src, hub, lat, inbox)
		src.Env().Go("send", func(p *Proc) {
			for _, r := range rounds {
				for _, idx := range r.idxs {
					if idx == k {
						p.SleepUntil(r.at)
						l.Post(p.Now(), p.Now(), k)
					}
				}
			}
		})
	}
	for _, r := range rounds {
		for _, idx := range r.idxs {
			want += fmt.Sprintf("t=%d link=%d\n", r.at+Time(lat), idx)
		}
	}
	return w, func() string { return out }, want
}

// TestWorldDirtyFlushMatchesFlushAll: the dirty-link barrier (flush only
// links that buffered sends this window, by a bitmap walked in creation
// order) must produce a schedule byte-for-byte identical to flushing
// every link every window — on a traffic matrix where most links never
// carry a message, and on a world of more than 64 links whose dirty
// indexes straddle the bitmap's word boundaries, where the schedule is
// also known outright: same-instant arrivals in link creation order.
func TestWorldDirtyFlushMatchesFlushAll(t *testing.T) {
	const horizon = Time(20 * Microsecond)
	sparse := func() (*World, func() string, string) {
		w, render := buildSparseWorld(8)
		return w, render, "" // no closed-form schedule: flush-all is the reference
	}
	for _, c := range []struct {
		name  string
		build func() (*World, func() string, string)
	}{{"sparse", sparse}, {"star", buildStarWorld}} {
		for _, workers := range []int{1, 3} {
			run := func(flushAll bool) (got, want string) {
				w, render, want := c.build()
				defer w.Close()
				w.flushAll = flushAll
				w.Run(horizon, workers)
				return render(), want
			}
			dirty, want := run(false)
			all, _ := run(true)
			if dirty == "" {
				t.Fatalf("%s/p%d: empty log — the world did not run", c.name, workers)
			}
			if dirty != all {
				t.Fatalf("%s/p%d: dirty-link schedule differs from flush-all:\n--- dirty ---\n%s--- flush-all ---\n%s", c.name, workers, dirty, all)
			}
			if want != "" && dirty != want {
				t.Fatalf("%s/p%d: same-instant arrivals left creation order:\n--- got ---\n%s--- want ---\n%s", c.name, workers, dirty, want)
			}
		}
	}
}

// TestLinkSendAt: SendAt decouples the send call from the modeled
// departure instant — arrivals land at depart+latency in send order,
// equal departures share one delivery instant, and the FIFO-wire
// contract (no past or decreasing departures, source-partition calls
// only) is enforced by panic.
func TestLinkSendAt(t *testing.T) {
	const lat = 100 * Nanosecond
	w := NewWorld()
	defer w.Close()
	a := w.NewPartition("a")
	b := w.NewPartition("b")
	inbox := NewQueue[int](b.Env(), 0)
	l := NewLink(a, b, lat, inbox)
	type arrival struct {
		at Time
		v  int
	}
	var got []arrival
	b.Env().Go("recv", func(p *Proc) {
		for {
			v := inbox.Get(p)
			got = append(got, arrival{p.Now(), v})
		}
	})
	expectPanic := func(what string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	a.Env().Go("send", func(p *Proc) {
		// Arithmetic serialization: three messages finish the wire at
		// 500/700/700ns while the process itself stays at t=0.
		l.SendAt(p, Time(500*Nanosecond), 1)
		l.SendAt(p, Time(700*Nanosecond), 2)
		l.SendAt(p, Time(700*Nanosecond), 3) // equal departures keep send order
		expectPanic("decreasing departure", func() { l.SendAt(p, Time(600*Nanosecond), 9) })
		p.Sleep(Microsecond)
		expectPanic("past departure", func() { l.SendAt(p, p.Now()-1, 9) })
		l.SendAt(p, p.Now(), 4) // a departure at the send
	})
	b.Env().Go("foreign", func(p *Proc) {
		expectPanic("send from outside the source partition", func() { l.SendAt(p, p.Now(), 9) })
	})
	// At 650ns message 1 has arrived and 2 and 3 are on the wire.
	w.Run(Time(650*Nanosecond), 2)
	if n := l.InFlight(); n != 2 {
		t.Fatalf("InFlight at 650ns = %d, want 2", n)
	}
	w.Run(Time(2*Microsecond), 2)
	if n := l.InFlight(); n != 0 {
		t.Fatalf("InFlight after the last arrival = %d, want 0", n)
	}
	want := []arrival{
		{Time(500*Nanosecond + lat), 1},
		{Time(700*Nanosecond + lat), 2},
		{Time(700*Nanosecond + lat), 3},
		{Time(Microsecond + lat), 4},
	}
	if len(got) != len(want) {
		t.Fatalf("arrivals %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrival %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if l.Sent != 4 || l.Dropped != 0 {
		t.Fatalf("Sent=%d Dropped=%d, want 4/0", l.Sent, l.Dropped)
	}
}

// TestWorldSparseIdleSkip: with events microseconds apart and lookahead
// of 100ns, Run must skip the idle windows (start at the grid window
// holding the next pending event) and still deliver at exact instants
// at any worker count.
func TestWorldSparseIdleSkip(t *testing.T) {
	const lat = 100 * Nanosecond
	run := func(workers int) []Time {
		w := NewWorld()
		defer w.Close()
		a := w.NewPartition("a")
		b := w.NewPartition("b")
		inbox := NewQueue[int](b.Env(), 0)
		l := NewLink(a, b, lat, inbox)
		a.Env().Go("send", func(p *Proc) {
			for k := 0; k < 5; k++ {
				p.Sleep(Duration(1+k) * Millisecond) // huge inter-event gaps
				l.Post(p.Now(), p.Now(), k)
			}
		})
		var got []Time
		b.Env().Go("recv", func(p *Proc) {
			for {
				inbox.Get(p)
				got = append(got, p.Now())
			}
		})
		w.Run(Time(20*Millisecond), workers)
		return got
	}
	var want []Time
	at := Time(0)
	for k := 0; k < 5; k++ {
		at += Time(Duration(1+k) * Millisecond)
		want = append(want, at+Time(lat))
	}
	for _, workers := range []int{1, 2} {
		got := run(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: arrivals %v, want %v", workers, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: arrival %d at %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestWorldWindowsOnTheGrid: windows are [kW, (k+1)W) whatever the
// events are. Each callback records how many windows had ended when it
// ran: 0.9 and 1.1 µs fall in different windows although they lie
// within W of each other, 1.999 and 2 µs do too, and the idle stretch
// from 3 to 7 µs costs no window, so the run takes four windows with one
// skip-ahead. A window that started at the earliest event would put
// 0.9 and 1.1 µs in one window and take three.
func TestWorldWindowsOnTheGrid(t *testing.T) {
	const W = Microsecond
	at := []Time{900_000, 1_100_000, 1_999_999, 2_000_000, 7_300_000, 7_999_999}
	want := []uint64{0, 1, 1, 2, 3, 3}
	for _, workers := range []int{1, 2} {
		w := NewWorld()
		a := w.NewPartition("a")
		b := w.NewPartition("b")
		NewLink(a, b, W, NewQueue[int](b.Env(), 0))
		got := make([]uint64, len(at))
		for i, ti := range at {
			a.Env().At(ti, func() { got[i] = w.stats.Windows })
		}
		w.Run(Time(10*W), workers)
		w.Close()
		for i := range at {
			if got[i] != want[i] {
				t.Errorf("workers=%d: the event at %v ran after %d windows, want %d", workers, at[i], got[i], want[i])
			}
		}
		if s := w.Stats(); s.Windows != 4 || s.SkipAheads != 1 {
			t.Errorf("workers=%d: %d windows with %d skip-aheads, want 4 with 1", workers, s.Windows, s.SkipAheads)
		}
	}
}

// TestLinkPostFlushesAfterItsSendWindow: a message posted at 0 µs with
// a send instant of 2.5 µs waits at the sender through the barriers at
// 1 and 2 µs and is flushed at the one after window [2, 3) µs, exactly
// where a Send at 2.5 µs would be. The destination sees the difference:
// its own event at 4 µs, scheduled at 2.2 µs, comes before the
// message's delivery at 4 µs, because a barrier at 3 µs schedules that
// delivery after it; a flush at 1 µs would have put the delivery first.
func TestLinkPostFlushesAfterItsSendWindow(t *testing.T) {
	const W = Microsecond
	for _, workers := range []int{1, 2} {
		w := NewWorld()
		a := w.NewPartition("a")
		b := w.NewPartition("b")
		var order []string
		l := NewLinkFunc(a, b, W, func(v int) { order = append(order, fmt.Sprint("message ", v)) })
		a.Env().At(0, func() { l.Post(Time(2500*Nanosecond), Time(3*W), 1) })
		b.Env().At(Time(2200*Nanosecond), func() {
			b.Env().At(Time(4*W), func() { order = append(order, "local") })
		})
		w.Run(Time(2400*Nanosecond), workers)
		if len(l.pending) != 1 || l.inflight.Len() != 0 {
			t.Errorf("workers=%d: at 2.4 µs %d pending and %d in flight, want the message still pending",
				workers, len(l.pending), l.inflight.Len())
		}
		w.Run(Time(5*W), workers)
		w.Close()
		if want := []string{"local", "message 1"}; !reflect.DeepEqual(order, want) {
			t.Errorf("workers=%d: at 4 µs the destination ran %q, want %q", workers, order, want)
		}
	}
}

// TestLinkSendAtIsPostNow: a process's SendAt(p, d, v) and Post(p.Now(),
// d, v) give the same arrivals and the same schedule digest.
func TestLinkSendAtIsPostNow(t *testing.T) {
	const W = 100 * Nanosecond
	run := func(post bool) ([]Time, uint64) {
		w := NewWorld()
		defer w.Close()
		a := w.NewPartition("a")
		b := w.NewPartition("b")
		var got []Time
		l := NewLinkFunc(a, b, W, func(int) { got = append(got, b.Env().Now()) })
		a.Env().Go("send", func(p *Proc) {
			var d Time // a wire that serializes 0, 40 or 80 ns per message
			for k := 0; k < 20; k++ {
				p.Sleep(Duration(30+k*7) * Nanosecond)
				d = max(p.Now(), d) + Time(k%3)*Time(40*Nanosecond)
				if post {
					l.Post(p.Now(), d, k)
				} else {
					l.SendAt(p, d, k)
				}
			}
		})
		w.Run(Time(10*Microsecond), 2)
		return got, w.Stats().Engine.Digest
	}
	sendAt, d1 := run(false)
	post, d2 := run(true)
	if !reflect.DeepEqual(sendAt, post) || d1 != d2 || len(post) != 20 {
		t.Errorf("SendAt arrivals %v (digest %x), Post(now) %v (digest %x)", sendAt, d1, post, d2)
	}
}

// TestLinkPostPanics: a send instant before the sender's clock, a
// departure before its send, and a departure before the link's previous
// one are each rejected.
func TestLinkPostPanics(t *testing.T) {
	w := NewWorld()
	defer w.Close()
	a := w.NewPartition("a")
	b := w.NewPartition("b")
	l := NewLinkFunc(a, b, Microsecond, func(int) {})
	var msgs []string
	expectPanic := func(what string, fn func()) {
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s did not panic", what)
			} else {
				msgs = append(msgs, fmt.Sprint(r))
			}
		}()
		fn()
	}
	a.Env().At(Time(5*Microsecond), func() {
		expectPanic("sent < now", func() { l.Post(Time(5*Microsecond)-1, Time(6*Microsecond), 1) })
		expectPanic("depart < sent", func() { l.Post(Time(7*Microsecond), Time(7*Microsecond)-1, 1) })
		l.Post(Time(7*Microsecond), Time(8*Microsecond), 1)
		expectPanic("non-monotone departure", func() { l.Post(Time(7*Microsecond), Time(8*Microsecond)-1, 2) })
	})
	w.Run(Time(10*Microsecond), 1)
	if l.Sent != 1 {
		t.Errorf("Sent = %d, want 1: a rejected post must not count", l.Sent)
	}
	if len(msgs) == 3 && (msgs[0] == msgs[1] || msgs[1] == msgs[2]) {
		t.Errorf("panics %q: each rejection should say what it rejects", msgs)
	}
}
