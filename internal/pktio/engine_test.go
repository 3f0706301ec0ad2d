package pktio

import (
	"testing"

	"packetshader/internal/model"
	"packetshader/internal/packet"
	"packetshader/internal/sim"
)

// forwardOneCore runs the §4.6 minimal-forwarding loop (RX + TX, no
// lookup) on a single worker serving two ports at 64B line rate,
// fetching batches of at most batch packets — the Figure 5 experiment —
// and hands back the engine.
func forwardOneCore(cfg Config, batch int, window sim.Duration) *Engine {
	env := sim.NewEnv()
	cfg.Nodes = 1
	cfg.Ports = 2
	cfg.QueuesPerPort = 1
	e := New(env, cfg)
	rate := model.PortPacketRate(64)
	for _, p := range e.Ports {
		p.Rx[0].SetOffered(rate, 64, nil)
	}
	ifaces := []*Iface{e.OpenIface(0, 0, 0), e.OpenIface(1, 0, 0)}
	env.Task("worker", e.Worker(Forward, 0, ifaces, batch, 64, sim.Time(window)))
	env.Run(sim.Time(window))
	return e
}

func TestFig5MonotoneAndSaturating(t *testing.T) {
	var prev float64
	rates := map[int]float64{}
	for _, b := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		got := forwardOneCore(DefaultConfig(), b, 10*sim.Millisecond).DeliveredGbps(0)
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
	skb := huge
	skb.Mode = ModeSkb
	h := forwardOneCore(huge, 64, 10*sim.Millisecond).DeliveredGbps(0)
	s := forwardOneCore(skb, 64, 10*sim.Millisecond).DeliveredGbps(0)
	// skb adds ≈2800 RX cycles/packet on top: expect several-fold drop.
	if s >= h/2 {
		t.Errorf("skb path %.2f Gbps vs huge %.2f — expected a large gap", s, h)
	}
}

func TestPrefetchRemovesCompulsoryMisses(t *testing.T) {
	with := DefaultConfig()
	without := with
	without.Prefetch = false
	w := forwardOneCore(with, 64, 10*sim.Millisecond).DeliveredGbps(0)
	wo := forwardOneCore(without, 64, 10*sim.Millisecond).DeliveredGbps(0)
	if wo >= w {
		t.Errorf("no-prefetch %.2f ≥ prefetch %.2f Gbps", wo, w)
	}
}

func TestFalseSharingAndSharedCountersCost(t *testing.T) {
	base := DefaultConfig()
	bad := base
	bad.QueueLocal = false
	g := forwardOneCore(base, 64, 10*sim.Millisecond).DeliveredGbps(0)
	b := forwardOneCore(bad, 64, 10*sim.Millisecond).DeliveredGbps(0)
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
			_, cost := iface.FetchNow(64, nil)
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
			chunk, _ := f.FetchNow(256, nil)
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

// TestFetchTakesAtMostMax: from a queue holding thousands of packets, a
// fetch takes exactly the caller's max.
func TestFetchTakesAtMostMax(t *testing.T) {
	env := sim.NewEnv()
	cfg := DefaultConfig()
	cfg.Nodes, cfg.Ports, cfg.QueuesPerPort = 1, 1, 1
	e := New(env, cfg)
	e.Ports[0].Rx[0].SetOffered(14e6, 64, nil)
	iface := e.OpenIface(0, 0, 0)
	env.Task("w", func(p *sim.Proc) {
		if p.Now() == 0 {
			p.WakeAfter(1 * sim.Millisecond) // thousands queued
			return
		}
		for _, max := range []int{1, 16, 1000} {
			iface.FetchWait()
			if chunk, _ := iface.FetchNow(max, nil); len(chunk) != max {
				t.Errorf("fetch of at most %d took %d", max, len(chunk))
			}
		}
	})
	env.Run(0)
}

func TestBufReuseThroughForwarding(t *testing.T) {
	// The pool must recycle buffers through the fetch→send cycle: no
	// unbounded growth (the huge-buffer property).
	if e := forwardOneCore(DefaultConfig(), 64, 5*sim.Millisecond); e.Pool.Allocs > 4096 {
		t.Errorf("pool allocated %d cells; recycling broken", e.Pool.Allocs)
	}
}

// TestBlockedIsElapsedLessCharged: Blocked is exactly the time a fetch
// and a send take beyond the cycles they charge. A task on one core
// fetches two full batches of 1514 B packets back to back, so the
// second waits for the first's RX DMA, and posts one to a TX ring it
// has filled, so Post waits for room. The task ends when the post
// does, so that no wait is in progress when Blocked is read.
func TestBlockedIsElapsedLessCharged(t *testing.T) {
	env := sim.NewEnv()
	cfg := DefaultConfig()
	cfg.Nodes, cfg.Ports, cfg.QueuesPerPort = 1, 1, 1
	e := New(env, cfg)
	e.Ports[0].Rx[0].SetOffered(model.PortPacketRate(1514), 1514, nil)
	f, tx := e.OpenIface(0, 0, 0), e.Ports[0].Tx
	var (
		step           int
		start, end     sim.Time
		since          sim.Time
		chunk          []*packet.Buf
		charged        sim.Duration
		rxWait, txWait bool
	)
	// fetch takes a full batch and charges its RX cycles.
	fetch := func(p *sim.Proc) {
		var cost sim.Duration
		chunk, cost = f.FetchNow(model.MaxChunkSize, nil)
		charged += cost
		p.WakeAfter(cost)
	}
	env.Task("fetch-send", func(p *sim.Proc) {
		switch step++; step {
		case 1: // let the RX ring fill
			p.WakeAfter(3 * sim.Millisecond)
		case 2: // fill the TX ring; the first fetch does not wait
			full := make([]*packet.Buf, model.TxRingSize)
			for i := range full {
				full[i] = e.Pool.Get(1514)
			}
			tx.Transmit(full)
			start = p.Now()
			f.FetchWait()
			fetch(p)
		case 3: // the second fetch, back to back, waits for the first's RX DMA
			for _, b := range chunk {
				b.Release()
			}
			var edge sim.Time
			if edge, rxWait = f.FetchWait(); rxWait {
				p.WakeAt(edge)
				return
			}
			fetch(p)
			step++
		case 4:
			fetch(p)
		case 5: // send the second batch to the full ring
			cost := e.SendCost(0, 0, len(chunk))
			charged += cost
			since = p.Now() + sim.Time(cost)
			p.WakeAfter(cost)
		default: // Post waits until the wire has drained room for it
			next, wait := e.Post(0, chunk, since)
			if end = p.Now(); wait {
				txWait = true
				p.WakeAt(next)
			}
		}
	})
	env.Run(0)
	if !rxWait || !txWait {
		t.Fatalf("RX-DMA wait %v, TX-ring wait %v: want both waits exercised", rxWait, txWait)
	}
	if want := sim.Duration(end-start) - charged; e.Blocked() != want {
		t.Errorf("Blocked = %v; elapsed less charged = %v", e.Blocked(), want)
	}
}
