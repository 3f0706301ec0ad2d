package experiments

import (
	"fmt"

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
// the queues to workers through place, run ioWorkerLoop on every worker
// — packets move with no application processing — for window, and hand
// back the engine for the caller to read.
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
			env.Go("worker", func(p *sim.Proc) {
				ioWorkerLoop(p, e, wl, n, ifaces, pktSize, window)
			})
		}
	}
	env.Run(sim.Time(window))
	return e
}

// ioWorkerLoop is the fetch → send loop of one worker: poll its
// interfaces round-robin, send each chunk out of a port of the output
// node (drop it when RX-only; synthesize it when TX-only), and sleep on
// the first interface when all are empty.
func ioWorkerLoop(p *sim.Proc, e *pktio.Engine, wl ioWorkload,
	node int, ifaces []*pktio.Iface, pktSize int, window sim.Duration) {
	cfg := e.Cfg
	portsPerNode := cfg.Ports / cfg.Nodes
	outBase := node * portsPerNode
	if wl == wlForwardCrossing {
		outBase = ((node + 1) % cfg.Nodes) * portsPerNode
	}
	rr := 0
	// Reusable batch buffers: Send/Transmit consume their argument
	// synchronously, so one slice per worker serves every iteration.
	bufs := make([]*packet.Buf, cfg.BatchCap)
	var chunk []*packet.Buf
	for p.Now() < sim.Time(window) {
		switch wl {
		case wlTxOnly:
			// Synthesize and transmit; pace against ring backlog so the
			// simulation does not spin generating drops.
			port := e.Ports[outBase+rr%portsPerNode]
			rr++
			if port.Tx.Pending() > model.TxRingSize/2 {
				p.Sleep(20 * sim.Microsecond)
				continue
			}
			for i := range bufs {
				bufs[i] = e.Pool.Get(pktSize)
			}
			e.Send(p, node, port.ID, bufs)
		default:
			progress := false
			for range ifaces {
				f := ifaces[rr%len(ifaces)]
				rr++
				chunk = f.FetchChunk(p, cfg.BatchCap, chunk[:0])
				if len(chunk) == 0 {
					continue
				}
				progress = true
				if wl == wlRxOnly {
					for _, b := range chunk {
						b.Release()
					}
					continue
				}
				out := outBase + (rr % portsPerNode)
				e.Send(p, node, out, chunk)
			}
			if !progress && !ifaces[0].Wait(p) {
				return
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
	row := func(name string, cycles float64, paper string) {
		r.AddRow(name, fmt.Sprintf("%.0f", cycles/float64(rx)),
			fmt.Sprintf("%.1f%%", cycles/total*100), paper)
	}
	row("skb initialization", bd.SkbInit, "4.9%")
	row("skb (de)allocation", bd.SkbAlloc, "8.0%")
	row("memory subsystem", bd.MemSubsystem, "50.2%")
	row("NIC device driver", bd.Driver, "13.3%")
	row("others", bd.Others, "9.8%")
	row("compulsory cache misses", bd.CacheMisses, "13.8%")
	r.AddRow("total", fmt.Sprintf("%.0f", total/float64(rx)), "100.0%", "100.0%")
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
		r.AddRow(fmt.Sprintf("%d", batch), fmt.Sprintf("%.2f", gbps[i]),
			fmt.Sprintf("%.1fx", gbps[i]/base))
	}
	r.Note("paper: 0.78 Gbps at batch 1, 10.5 at 64 (13.5x); gains stall past 32")
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
		r.AddRow(fmt.Sprintf("%d", size),
			fmt.Sprintf("%.1f", row[0]), fmt.Sprintf("%.1f", row[1]),
			fmt.Sprintf("%.1f", row[2]), fmt.Sprintf("%.1f", row[3]))
	}
	r.Note("paper: TX 79.3-80.0, RX 53.1-59.9, forwarding > 40 for all sizes (41.1 at 64B)")
	r.Note("node-crossing forwarding also stays above 40 Gbps")
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
	r.AddRow("NUMA-aware", fmt.Sprintf("%.1f", vals[0]))
	r.AddRow("NUMA-blind", fmt.Sprintf("%.1f", vals[1]))
	r.Note("paper: ~40 Gbps aware vs below 25 Gbps blind (≈60%% improvement)")
	return r
}
