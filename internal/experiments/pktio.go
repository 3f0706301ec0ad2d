package experiments

import (
	"packetshader/internal/model"
	"packetshader/internal/pktio"
	"packetshader/internal/sim"
)

// The §4.6 workloads, as the drivers name them.
const wlRxOnly, wlTxOnly, wlForward, wlForwardCrossing = pktio.RxOnly, pktio.TxOnly, pktio.Forward, pktio.ForwardCrossing

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
// the queues to workers through place, run the engine's Worker task
// fetching at most batch packets at a time on every worker for window,
// and hand back the engine.
func ioHarness(cfg pktio.Config, place ioPlacement, wl pktio.Workload, batch, pktSize int, window sim.Duration) *pktio.Engine {
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
			env.Task("worker", e.Worker(wl, n, ifaces, batch, pktSize, sim.Time(window)))
		}
	}
	env.Run(sim.Time(window))
	return e
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
	e := MapPoints(c, 1, func(int, *Point) *pktio.Engine {
		cfg := pktio.DefaultConfig()
		cfg.Nodes, cfg.Ports, cfg.QueuesPerPort = 1, 1, 1
		cfg.Mode = pktio.ModeSkb
		return ioHarness(cfg, numaAware, wlRxOnly, 64, 64, 10*sim.Millisecond)
	})[0]
	rx, _, _, _ := e.AggregateStats()
	bd := e.RxBreakdown()
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
		return ioHarness(cfg, numaAware, wlForward, batches[i], 64, 20*sim.Millisecond).DeliveredGbps(0)
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
	workloads := []pktio.Workload{wlRxOnly, wlTxOnly, wlForward, wlForwardCrossing}
	// One job per (packet size, workload) cell: each full-machine run is
	// independent, so the whole table fans out.
	vals := MapPoints(c, len(sizes)*len(workloads), func(k int, _ *Point) float64 {
		cfg := pktio.DefaultConfig()
		cfg.QueuesPerPort = model.CoresPerNode // 4 workers per node in §4.6
		wl, size := workloads[k%len(workloads)], sizes[k/len(workloads)]
		e := ioHarness(cfg, numaAware, wl, model.MaxChunkSize, size, window)
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
		return ioHarness(cfg, place, wlForward, model.MaxChunkSize, 64, 10*sim.Millisecond).DeliveredGbps(0)
	})
	r.AddRow(Label("NUMA-aware"), Num("%.1f", vals[0]))
	r.AddRow(Label("NUMA-blind"), Num("%.1f", vals[1]))
	return r
}
