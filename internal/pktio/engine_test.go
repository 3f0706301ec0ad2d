package pktio

import (
	"math"
	"testing"

	"packetshader/internal/model"
	"packetshader/internal/packet"
	"packetshader/internal/sim"
)

// worker is the fetch → send loop the tests drive the engine with, a
// sim task on node 0. Each round, until until, polls the interfaces in
// order, fetching up to max packets from each, and sends each chunk to
// port dst(i), or drops it when dst is nil; a round that fetched
// nothing idles on the first interface until it has packets. fetched
// and sent, if set, see each fetch's and each send's packets and the
// time it took.
type worker struct {
	e       *Engine
	ifaces  []*Iface
	max     int
	until   sim.Time
	dst     func(i int) int
	fetched func(f *Iface, chunk []*packet.Buf, took sim.Duration)
	sent    func(chunk []*packet.Buf, took sim.Duration)

	at           int // where step resumes: one of the w* points below
	i            int // the interface polled
	progress     bool
	chunk        []*packet.Buf
	start, since sim.Time
}

const (
	wRound   = iota // a round starts, if until has not passed
	wPoll           // poll interface i
	wPolled         // its RX-DMA wait is over
	wFetched        // its RX cycles are charged
	wSent           // the TX cycles are charged
	wPost           // post to the TX ring, or wait for room
	wWoken          // the idle wait for packets is over
)

func (w *worker) step(p *sim.Proc) {
	for {
		switch w.at {
		case wRound:
			if p.Now() >= w.until {
				return
			}
			w.i, w.progress, w.at = 0, false, wPoll
		case wPoll:
			if w.i == len(w.ifaces) {
				w.at = wRound
				if w.progress {
					continue
				}
				d, wait, ok := w.ifaces[0].Queue.PacketWait()
				if !ok {
					return
				}
				if wait {
					w.at = wWoken
					p.WakeAfter(d)
					return
				}
				continue
			}
			w.start, w.at = p.Now(), wPolled
			if edge, wait := w.ifaces[w.i].FetchWait(); wait {
				p.WakeAt(edge)
				return
			}
		case wPolled:
			got, cost := w.ifaces[w.i].FetchNow(w.max, nil, w.start)
			if w.chunk, w.at = got, wFetched; got != nil {
				p.WakeAfter(cost)
				return
			}
		case wFetched:
			if w.fetched != nil {
				w.fetched(w.ifaces[w.i], w.chunk, sim.Duration(p.Now()-w.start))
			}
			w.at = wPoll
			if len(w.chunk) == 0 || w.dst == nil {
				for _, b := range w.chunk {
					b.Release()
				}
				w.progress = w.progress || len(w.chunk) > 0
				w.i++
				continue
			}
			w.progress, w.start, w.at = true, p.Now(), wSent
			p.WakeAfter(w.e.SendCost(0, w.dst(w.i), len(w.chunk)))
			return
		case wSent:
			w.since, w.at = p.Now(), wPost
		case wPost:
			if next, wait := w.e.Post(w.dst(w.i), w.chunk, w.since); wait {
				p.WakeAt(next)
				return
			}
			if w.sent != nil {
				w.sent(w.chunk, sim.Duration(p.Now()-w.start))
			}
			w.i, w.at = w.i+1, wPoll
		case wWoken:
			w.ifaces[0].Queue.Update()
			w.at = wRound
		}
	}
}

// otherPort forwards interface i's packets out of the other of two
// ports.
func otherPort(i int) int { return 1 - i }

// forwardOneCore runs the §4.6 minimal-forwarding loop (RX + TX, no
// lookup) on a single worker serving two ports at 64B line rate, with
// the given batch cap — the Figure 5 experiment.
func forwardOneCore(cfg Config, window sim.Duration) float64 {
	env := sim.NewEnv()
	cfg.Nodes = 1
	cfg.Ports = 2
	cfg.QueuesPerPort = 1
	e := New(env, cfg)
	rate := model.PortPacketRate(64)
	for _, p := range e.Ports {
		p.Rx[0].SetOffered(rate, 64, nil)
	}
	w := &worker{e: e, ifaces: []*Iface{e.OpenIface(0, 0, 0), e.OpenIface(1, 0, 0)},
		max: cfg.BatchCap, until: sim.Time(window), dst: otherPort}
	env.Task("worker", w.step)
	env.Run(sim.Time(window))
	return e.DeliveredGbps(0)
}

func TestFig5BatchOneMatchesPaper(t *testing.T) {
	got := forwardOneCore(func() Config {
		c := DefaultConfig()
		c.BatchCap = 1
		return c
	}(), 20*sim.Millisecond)
	// Figure 5: packet-by-packet ≈ 0.78 Gbps.
	if math.Abs(got-0.78) > 0.12 {
		t.Errorf("batch=1 forwarding = %.2f Gbps, paper says 0.78", got)
	}
}

func TestFig5Batch64MatchesPaper(t *testing.T) {
	got := forwardOneCore(func() Config {
		c := DefaultConfig()
		c.BatchCap = 64
		return c
	}(), 20*sim.Millisecond)
	// Figure 5: batch 64 ≈ 10.5 Gbps, speedup 13.5.
	if math.Abs(got-10.5) > 1.0 {
		t.Errorf("batch=64 forwarding = %.2f Gbps, paper says 10.5", got)
	}
}

func TestFig5MonotoneAndSaturating(t *testing.T) {
	var prev float64
	rates := map[int]float64{}
	for _, b := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		cfg := DefaultConfig()
		cfg.BatchCap = b
		got := forwardOneCore(cfg, 10*sim.Millisecond)
		if got+0.05 < prev {
			t.Errorf("throughput fell from %.2f to %.2f at batch %d", prev, got, b)
		}
		prev = got
		rates[b] = got
	}
	// Figure 5's shape: almost all the gain comes before batch 32 (the
	// paper says gains stall there); 32→128 adds little compared to the
	// 1→32 improvement.
	if rates[32] < rates[1]*8 {
		t.Errorf("batch 32 (%.2f) less than 8× batch 1 (%.2f)", rates[32], rates[1])
	}
	if rates[128] > rates[32]*1.35 {
		t.Errorf("batch 128 (%.2f) still much faster than 32 (%.2f); paper says gains stall",
			rates[128], rates[32])
	}
}

func TestSkbPathMuchSlowerThanHuge(t *testing.T) {
	huge := DefaultConfig()
	huge.BatchCap = 64
	skb := huge
	skb.Mode = ModeSkb
	h := forwardOneCore(huge, 10*sim.Millisecond)
	s := forwardOneCore(skb, 10*sim.Millisecond)
	// skb adds ≈2800 RX cycles/packet on top: expect several-fold drop.
	if s >= h/2 {
		t.Errorf("skb path %.2f Gbps vs huge %.2f — expected a large gap", s, h)
	}
}

func TestTable3BreakdownShares(t *testing.T) {
	env := sim.NewEnv()
	cfg := DefaultConfig()
	cfg.Nodes, cfg.Ports, cfg.QueuesPerPort = 1, 1, 1
	cfg.Mode = ModeSkb
	e := New(env, cfg)
	e.Ports[0].Rx[0].SetOffered(model.PortPacketRate(64), 64, nil)
	// The worker silently drops what it fetches, as the Table 3 setup
	// does.
	w := &worker{e: e, ifaces: []*Iface{e.OpenIface(0, 0, 0)}, max: 64, until: sim.Time(5 * sim.Millisecond)}
	env.Task("rx-drop", w.step)
	env.Run(sim.Time(5 * sim.Millisecond))
	bd := e.RxBreakdown()
	total := bd.Total()
	if total == 0 {
		t.Fatal("no breakdown recorded")
	}
	check := func(name string, got, want float64) {
		if math.Abs(got/total-want) > 0.015 {
			t.Errorf("%s share = %.1f%%, paper says %.1f%%", name, got/total*100, want*100)
		}
	}
	check("skb init", bd.SkbInit, 0.049)
	check("skb alloc", bd.SkbAlloc, 0.080)
	check("memory subsystem", bd.MemSubsystem, 0.502)
	check("driver", bd.Driver, 0.133)
	check("others", bd.Others, 0.098)
	check("cache misses", bd.CacheMisses, 0.138)
}

func TestPrefetchRemovesCompulsoryMisses(t *testing.T) {
	with := DefaultConfig()
	with.BatchCap = 64
	without := with
	without.Prefetch = false
	w := forwardOneCore(with, 10*sim.Millisecond)
	wo := forwardOneCore(without, 10*sim.Millisecond)
	if wo >= w {
		t.Errorf("no-prefetch %.2f ≥ prefetch %.2f Gbps", wo, w)
	}
}

func TestFalseSharingAndSharedCountersCost(t *testing.T) {
	base := DefaultConfig()
	base.BatchCap = 64
	bad := base
	bad.AlignQueueData = false
	bad.PerQueueCounters = false
	g := forwardOneCore(base, 10*sim.Millisecond)
	b := forwardOneCore(bad, 10*sim.Millisecond)
	// §4.4: ~20% per-packet cycle increase from the two effects.
	if b >= g {
		t.Errorf("unaligned+shared counters %.2f ≥ tuned %.2f", b, g)
	}
	if b < g*0.6 {
		t.Errorf("penalty too large: %.2f vs %.2f (want ≈20%% cycles)", b, g)
	}
}

func TestNUMABlindRoutesDMAAcrossHubs(t *testing.T) {
	env := sim.NewEnv()
	cfg := DefaultConfig()
	e := New(env, cfg)
	// Worker on node 1 opening a queue on a node-0 port: both hubs in
	// the DMA path.
	iface := e.OpenIface(0, 0, 1)
	e.Ports[0].Rx[0].SetOffered(1e6, 64, nil)
	wakes := 0
	env.Task("w", func(p *sim.Proc) {
		switch wakes++; wakes {
		case 1:
			p.WakeAfter(100 * sim.Microsecond)
		case 2:
			// Fetch, and charge the RX cycles while the DMA runs.
			iface.FetchWait()
			_, cost := iface.FetchNow(64, nil, p.Now())
			p.WakeAfter(cost)
		}
	})
	env.Run(0)
	if e.IOHs[1].UpBusy() == 0 {
		t.Error("node-crossing RX DMA did not touch the remote hub")
	}
	if iface.remoteFactor() != model.RemoteMemFactor {
		t.Error("remote factor not applied to node-crossing worker")
	}
}

func TestAggregateStatsOnDemand(t *testing.T) {
	env := sim.NewEnv()
	cfg := DefaultConfig()
	cfg.Nodes, cfg.Ports, cfg.QueuesPerPort = 1, 2, 2
	e := New(env, cfg)
	for _, p := range e.Ports {
		for _, q := range p.Rx {
			q.SetOffered(1e6, 64, nil)
		}
	}
	ifaces := []*Iface{
		e.OpenIface(0, 0, 0), e.OpenIface(0, 1, 0),
		e.OpenIface(1, 0, 0), e.OpenIface(1, 1, 0),
	}
	env.Task("w", func(p *sim.Proc) {
		if p.Now() == 0 {
			p.WakeAfter(100 * sim.Microsecond)
			return
		}
		for _, f := range ifaces {
			f.FetchWait()
			chunk, _ := f.FetchNow(256, nil, p.Now())
			e.Post(1, chunk, p.Now())
		}
	})
	env.Run(0)
	rx, _, tx, _ := e.AggregateStats()
	if rx == 0 || tx == 0 {
		t.Errorf("aggregate stats rx=%d tx=%d", rx, tx)
	}
	if rx != tx {
		t.Errorf("forwarded everything but rx=%d tx=%d", rx, tx)
	}
}

// TestSendEmptyIsFree: posting no packets returns at once, with nothing
// transmitted and no time blocked.
func TestSendEmptyIsFree(t *testing.T) {
	env := sim.NewEnv()
	e := New(env, DefaultConfig())
	if _, wait := e.Post(0, nil, env.Now()); wait {
		t.Error("an empty post waits for ring room")
	}
	if tx := e.Ports[0].Tx; tx.Pending() != 0 || tx.Stats.Packets != 0 || e.Blocked() != 0 {
		t.Errorf("an empty post left %d pending, %d sent, %v blocked", tx.Pending(), tx.Stats.Packets, e.Blocked())
	}
}

func TestFetchChunkRespectsBatchCap(t *testing.T) {
	env := sim.NewEnv()
	cfg := DefaultConfig()
	cfg.Nodes, cfg.Ports, cfg.QueuesPerPort = 1, 1, 1
	cfg.BatchCap = 16
	e := New(env, cfg)
	e.Ports[0].Rx[0].SetOffered(14e6, 64, nil)
	iface := e.OpenIface(0, 0, 0)
	env.Task("w", func(p *sim.Proc) {
		if p.Now() == 0 {
			p.WakeAfter(1 * sim.Millisecond) // thousands queued
			return
		}
		iface.FetchWait()
		if chunk, _ := iface.FetchNow(9999, nil, p.Now()); len(chunk) != 16 {
			t.Errorf("chunk = %d, want capped at 16", len(chunk))
		}
	})
	env.Run(0)
}

func TestBufReuseThroughForwarding(t *testing.T) {
	// The pool must recycle buffers through the fetch→send cycle: no
	// unbounded growth (the huge-buffer property).
	env := sim.NewEnv()
	cfg := DefaultConfig()
	cfg.Nodes, cfg.Ports, cfg.QueuesPerPort = 1, 2, 1
	e := New(env, cfg)
	rate := model.PortPacketRate(64)
	for _, p := range e.Ports {
		p.Rx[0].SetOffered(rate, 64, nil)
	}
	w := &worker{e: e, ifaces: []*Iface{e.OpenIface(0, 0, 0), e.OpenIface(1, 0, 0)},
		max: 64, until: sim.Time(5 * sim.Millisecond), dst: otherPort}
	env.Task("worker", w.step)
	env.Run(sim.Time(5 * sim.Millisecond))
	if e.Pool.Allocs > 4096 {
		t.Errorf("pool allocated %d cells; recycling broken", e.Pool.Allocs)
	}
}

// TestBlockedIsElapsedLessCharged: Blocked is exactly the time a fetch
// and a send take beyond the cycles they charge. One core forwards two
// ports of 1514 B line rate into one TX port, so the TX ring fills and
// Post waits, and each fetch of a large batch waits for the previous
// one's RX DMA. The run goes on until the worker stops, so that no wait
// is in progress when Blocked is read.
func TestBlockedIsElapsedLessCharged(t *testing.T) {
	env := sim.NewEnv()
	cfg := DefaultConfig()
	cfg.Nodes, cfg.Ports, cfg.QueuesPerPort = 1, 2, 1
	e := New(env, cfg)
	for _, p := range e.Ports {
		p.Rx[0].SetOffered(model.PortPacketRate(1514), 1514, nil)
	}
	var rxWait, txWait sim.Duration
	w := &worker{e: e, ifaces: []*Iface{e.OpenIface(0, 0, 0), e.OpenIface(1, 0, 0)},
		max: cfg.BatchCap, until: sim.Time(5 * sim.Millisecond), dst: func(int) int { return 0 },
		fetched: func(f *Iface, chunk []*packet.Buf, took sim.Duration) {
			var cycles float64
			if len(chunk) > 0 {
				cycles = model.IOBatchCycles * model.IORxShare
			}
			for _, b := range chunk {
				cycles += f.hugeRxCycles(min(b.Size(), model.HugeCellDataBytes))
			}
			rxWait += took - model.Cycles(cycles)
		},
		sent: func(chunk []*packet.Buf, took sim.Duration) {
			tx := float64(model.IOBatchCycles * model.IOTxShare)
			tx += float64(float64(len(chunk)) * model.IOPerPacketCycles * model.IOTxShare)
			txWait += took - model.Cycles(tx)
		}}
	env.Task("worker", w.step)
	env.Run(0)
	if rxWait <= 0 || txWait <= 0 {
		t.Fatalf("RX wait %v, TX wait %v: want both waits exercised", rxWait, txWait)
	}
	if e.Blocked() != rxWait+txWait {
		t.Errorf("Blocked = %v; elapsed less charged: RX %v + TX %v", e.Blocked(), rxWait, txWait)
	}
}
