package experiments

import (
	"packetshader/internal/model"
	"packetshader/internal/packet"
	"packetshader/internal/pktio"
	"packetshader/internal/sim"
)

// ioWorkload selects what the packet-I/O harness measures (§4.6).
type ioWorkload int

const (
	wlRxOnly ioWorkload = iota
	wlTxOnly
	wlForward
	wlForwardCrossing
)

// ioPlacement says which RX queues worker w of a node polls: queue
// `queue` of ports lo … hi-1.
type ioPlacement func(cfg pktio.Config, node, w int) (lo, hi, queue int)

// numaAware is the §4.5 placement: worker w polls queue w of its own
// node's ports.
func numaAware(cfg pktio.Config, node, w int) (lo, hi, queue int) {
	portsPerNode := cfg.Ports / cfg.Nodes
	return node * portsPerNode, (node + 1) * portsPerNode, w
}

// numaBlind has every worker poll its own queue — by machine-wide worker
// index — of every port, local and remote, so cfg needs one RSS queue per
// worker of the machine. Half the packets then suffer remote-memory
// costs and their DMA crosses both hubs.
func numaBlind(cfg pktio.Config, node, w int) (lo, hi, queue int) {
	return 0, cfg.Ports, node*ioWorkersPerNode(cfg) + w
}

// ioWorkersPerNode is how many workers the harness runs on each node:
// one per core, but never one without a queue to poll.
func ioWorkersPerNode(cfg pktio.Config) int {
	return min(model.CoresPerNode, cfg.QueuesPerPort)
}

// ioHarness is the one way a §4 figure drives the packet I/O engine:
// build it from cfg, offer line rate split over each port's queues, bind
// the queues to workers through place, run an ioWorker task on every
// worker — packets move with no application processing — for window,
// and hand back the engine for the caller to read.
func ioHarness(cfg pktio.Config, place ioPlacement, wl ioWorkload, pktSize int, window sim.Duration) *pktio.Engine {
	env := sim.NewEnv()
	defer env.Close()
	e := pktio.New(env, cfg)
	rate := model.PortPacketRate(pktSize) / float64(cfg.QueuesPerPort)
	if wl != wlTxOnly {
		for _, p := range e.Ports {
			for _, q := range p.Rx {
				q.SetOffered(rate, pktSize, nil)
			}
		}
	}
	for n := 0; n < cfg.Nodes; n++ {
		for w := 0; w < ioWorkersPerNode(cfg); w++ {
			lo, hi, queue := place(cfg, n, w)
			var ifaces []*pktio.Iface
			for port := lo; port < hi; port++ {
				ifaces = append(ifaces, e.OpenIface(port, queue, n))
			}
			env.Task("worker", ioWorker(e, wl, n, ifaces, pktSize, sim.Time(window)))
		}
	}
	env.Run(sim.Time(window))
	return e
}

// The points at which an ioWorker's step resumes: a round starts, if
// the window has not ended; poll the next interface; its RX-DMA wait is
// over; its RX cycles are charged; post the chunk to the TX ring, or
// wait for room; the idle wait for packets is over.
const (
	ioRound = iota
	ioPoll
	ioPolled
	ioFetched
	ioPost
	ioWoken
)

// ioWorker returns the step of one worker of node, a sim task: until
// window it polls its interfaces round-robin and sends each chunk out of
// a port of the output node (drops it when RX-only; synthesizes it when
// TX-only), and after a round that fetched nothing it idles on its
// first interface until that has packets. It arms nothing once the
// window is over or that interface has no offered load.
func ioWorker(e *pktio.Engine, wl ioWorkload, node int, ifaces []*pktio.Iface, pktSize int, window sim.Time) func(*sim.Proc) {
	perNode := e.Cfg.Ports / e.Cfg.Nodes
	outBase := node * perNode
	if wl == wlForwardCrossing {
		outBase = ((node + 1) % e.Cfg.Nodes) * perNode
	}
	// What the step keeps across its waits: where it resumes, the
	// round's polls, the interface polled, the chunk in hand (Post
	// consumes it at once, so one slice serves every batch) and its
	// port, and when the current wait in the engine began.
	at, rr, polled, port, progress := ioRound, 0, 0, 0, false
	var f *pktio.Iface
	chunk := make([]*packet.Buf, e.Cfg.BatchCap)
	var since sim.Time
	// send charges the TX cycles of the chunk for to, then posts it.
	send := func(p *sim.Proc, to int) {
		cost := e.SendCost(node, to, len(chunk))
		at, port, since = ioPost, to, p.Now()+sim.Time(cost)
		p.WakeAfter(cost)
	}
	return func(p *sim.Proc) {
		for {
			switch at {
			case ioRound:
				if p.Now() >= window {
					return
				}
				at, polled, progress = ioPoll, 0, false
				if wl != wlTxOnly {
					continue
				}
				// Synthesize and transmit; pace against ring backlog so
				// the simulation does not spin generating drops.
				tx := e.Ports[outBase+rr%perNode]
				rr++
				if at = ioRound; tx.Tx.Pending() > model.TxRingSize/2 {
					p.WakeAfter(20 * sim.Microsecond)
					return
				}
				for i := range chunk {
					chunk[i] = e.Pool.Get(pktSize)
				}
				send(p, tx.ID)
				return
			case ioPoll:
				if polled == len(ifaces) {
					at = ioRound
					if progress {
						continue
					}
					if d, wait, ok := ifaces[0].Queue.PacketWait(); wait || !ok {
						if wait {
							at = ioWoken
							p.WakeAfter(d)
						}
						return
					}
					continue
				}
				f, rr, polled = ifaces[rr%len(ifaces)], rr+1, polled+1
				at, since = ioPolled, p.Now()
				if edge, wait := f.FetchWait(); wait {
					p.WakeAt(edge)
					return
				}
			case ioPolled:
				got, cost := f.FetchNow(e.Cfg.BatchCap, chunk[:0], since)
				if at = ioPoll; got != nil {
					at, chunk, progress = ioFetched, got, true
					p.WakeAfter(cost)
					return
				}
			case ioFetched:
				if wl != wlRxOnly {
					send(p, outBase+rr%perNode)
					return
				}
				for _, b := range chunk {
					b.Release()
				}
				at = ioPoll
			case ioPost:
				if next, wait := e.Post(port, chunk, since); wait {
					p.WakeAt(next)
					return
				}
				if at = ioPoll; wl == wlTxOnly {
					at = ioRound
				}
			case ioWoken:
				ifaces[0].Queue.Update() // as WaitForPackets does
				at = ioRound
			}
		}
	}
}

// table3 regenerates the paper's Table 3: the CPU cycle breakdown of
// receiving (and silently dropping) 64B packets through the unmodified
// skb-based driver path.
func table3(c *Ctx) *Result {
	r := &Result{
		ID:     "table3",
		Title:  "CPU cycle breakdown in packet RX (skb path, 64B)",
		Header: []string{"Functional bins", "Cycles", "Share", "paper"},
	}
	type out struct {
		bd pktio.Breakdown
		rx uint64
	}
	pt := MapPoints(c, 1, func(int, *Point) out {
		cfg := pktio.DefaultConfig()
		cfg.Nodes, cfg.Ports, cfg.QueuesPerPort = 1, 1, 1
		cfg.Mode = pktio.ModeSkb
		cfg.BatchCap = 64
		e := ioHarness(cfg, numaAware, wlRxOnly, 64, 10*sim.Millisecond)
		rx, _, _, _ := e.AggregateStats()
		return out{e.RxBreakdown(), rx}
	})[0]
	bd, rx := pt.bd, pt.rx
	total := bd.Total()
	row := func(name string, cycles float64) {
		r.AddRow(Label(name), Num("%.0f", cycles/float64(rx)),
			Num("%.1f%%", cycles/total*100), Num("%.1f%%", paperValue("table3", name, "Share")))
	}
	row("skb initialization", bd.SkbInit)
	row("skb (de)allocation", bd.SkbAlloc)
	row("memory subsystem", bd.MemSubsystem)
	row("NIC device driver", bd.Driver)
	row("others", bd.Others)
	row("compulsory cache misses", bd.CacheMisses)
	row("total", total)
	r.Note("huge packet buffer + batching + prefetch eliminate the first five bins (§4.2-4.3)")
	return r
}

// fig5 regenerates Figure 5: single-core RX+TX forwarding throughput of
// 64B packets over two 10GbE ports versus the batch size.
func fig5(c *Ctx) *Result {
	r := &Result{
		ID:     "fig5",
		Title:  "Effect of batch processing (1 core, 2 ports, 64B)",
		Header: []string{"Batch size", "Forwarding Gbps", "speedup"},
	}
	batches := []int{1, 2, 4, 8, 16, 32, 64, 128}
	gbps := MapPoints(c, len(batches), func(i int, _ *Point) float64 {
		cfg := pktio.DefaultConfig()
		cfg.Nodes, cfg.Ports, cfg.QueuesPerPort = 1, 2, 1
		cfg.BatchCap = batches[i]
		return ioHarness(cfg, numaAware, wlForward, 64, 20*sim.Millisecond).DeliveredGbps(0)
	})
	base := gbps[0] // batch size 1
	for i, batch := range batches {
		r.AddRow(Int(batch), Num("%.2f", gbps[i]), Num("%.1fx", gbps[i]/base))
	}
	return r
}

// fig6 regenerates Figure 6: the packet I/O engine's RX-only, TX-only,
// forwarding, and node-crossing forwarding throughput versus packet
// size, on the full 8-core, 8-port machine.
func fig6(c *Ctx) *Result {
	r := &Result{
		ID:     "fig6",
		Title:  "Performance of the packet I/O engine (Gbps)",
		Header: []string{"Packet size", "RX", "TX", "Forward", "Node-crossing"},
	}
	window := 30 * sim.Millisecond
	sizes := []int{64, 128, 256, 512, 1024, 1514}
	workloads := []ioWorkload{wlRxOnly, wlTxOnly, wlForward, wlForwardCrossing}
	// One job per (packet size, workload) cell: each full-machine run is
	// independent, so the whole table fans out.
	vals := MapPoints(c, len(sizes)*len(workloads), func(k int, _ *Point) float64 {
		cfg := pktio.DefaultConfig()
		cfg.QueuesPerPort = model.CoresPerNode // 4 workers per node in §4.6
		wl, size := workloads[k%len(workloads)], sizes[k/len(workloads)]
		e := ioHarness(cfg, numaAware, wl, size, window)
		if wl != wlRxOnly {
			return e.DeliveredGbps(0)
		}
		// Nothing is transmitted: count what the RX DMA completed.
		var completed uint64
		for _, p := range e.Ports {
			for _, q := range p.Rx {
				completed += q.CompletedDMA()
			}
		}
		return float64(completed) * float64(model.WireBytes(size)) * 8 /
			window.Seconds() / 1e9
	})
	for i, size := range sizes {
		row := vals[i*len(workloads) : (i+1)*len(workloads)]
		r.AddRow(Int(size), Num("%.1f", row[0]), Num("%.1f", row[1]),
			Num("%.1f", row[2]), Num("%.1f", row[3]))
	}
	return r
}

// numa regenerates the §4.5 comparison: NUMA-aware versus NUMA-blind
// packet I/O for 64B forwarding.
func numa(c *Ctx) *Result {
	r := &Result{
		ID:     "numa",
		Title:  "NUMA-aware vs NUMA-blind packet I/O (64B forwarding)",
		Header: []string{"Placement", "Gbps"},
	}
	vals := MapPoints(c, 2, func(i int, _ *Point) float64 {
		cfg := pktio.DefaultConfig()
		cfg.QueuesPerPort = model.CoresPerNode
		place := numaAware
		if i == 1 {
			cfg.QueuesPerPort = model.CoresPerNode * cfg.Nodes
			place = numaBlind
		}
		return ioHarness(cfg, place, wlForward, 64, 10*sim.Millisecond).DeliveredGbps(0)
	})
	r.AddRow(Label("NUMA-aware"), Num("%.1f", vals[0]))
	r.AddRow(Label("NUMA-blind"), Num("%.1f", vals[1]))
	return r
}
