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

// ioHarness runs the §4.6 packet I/O benchmark: per node, CoresPerNode
// workers move packets with no application processing. It returns the
// measured throughput in wire Gbps (TX-delivered for TX/forwarding
// workloads, RX-fetched for RX-only).
func ioHarness(cfg pktio.Config, wl ioWorkload, pktSize int, window sim.Duration) float64 {
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

	workersPerNode := model.CoresPerNode
	portsPerNode := cfg.Ports / cfg.Nodes
	for n := 0; n < cfg.Nodes; n++ {
		for w := 0; w < workersPerNode; w++ {
			// Each worker serves queue w of every port on its node.
			var ifaces []*pktio.Iface
			for pi := 0; pi < portsPerNode; pi++ {
				port := n*portsPerNode + pi
				if w < cfg.QueuesPerPort {
					ifaces = append(ifaces, e.OpenIface(port, w, n))
				}
			}
			env.Go("worker", func(p *sim.Proc) {
				ioWorkerLoop(p, e, cfg, wl, n, ifaces, pktSize, window)
			})
		}
	}
	env.Run(sim.Time(window))
	if wl == wlRxOnly {
		var completed uint64
		for _, p := range e.Ports {
			for _, q := range p.Rx {
				completed += q.CompletedDMA()
			}
		}
		return float64(completed) * float64(model.WireBytes(pktSize)) * 8 /
			window.Seconds() / 1e9
	}
	return e.DeliveredGbps(0)
}

func ioWorkerLoop(p *sim.Proc, e *pktio.Engine, cfg pktio.Config, wl ioWorkload,
	node int, ifaces []*pktio.Iface, pktSize int, window sim.Duration) {
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
			if !progress {
				if !ifaces[0].Wait(p) {
					return
				}
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
		env := sim.NewEnv()
		defer env.Close()
		cfg := pktio.DefaultConfig()
		cfg.Nodes, cfg.Ports, cfg.QueuesPerPort = 1, 1, 1
		cfg.Mode = pktio.ModeSkb
		e := pktio.New(env, cfg)
		e.Ports[0].Rx[0].SetOffered(model.PortPacketRate(64), 64, nil)
		iface := e.OpenIface(0, 0, 0)
		env.Go("rx-drop", func(p *sim.Proc) {
			var chunk []*packet.Buf
			for p.Now() < sim.Time(10*sim.Millisecond) {
				chunk = iface.FetchChunk(p, 64, chunk[:0])
				for _, b := range chunk {
					b.Release()
				}
				if len(chunk) == 0 && !iface.Wait(p) {
					return
				}
			}
		})
		env.Run(sim.Time(10 * sim.Millisecond))
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
		return fig5OneCore(cfg, 20*sim.Millisecond)
	})
	base := gbps[0] // batch size 1
	for i, batch := range batches {
		r.AddRow(fmt.Sprintf("%d", batch), fmt.Sprintf("%.2f", gbps[i]),
			fmt.Sprintf("%.1fx", gbps[i]/base))
	}
	r.Note("paper: 0.78 Gbps at batch 1, 10.5 at 64 (13.5x); gains stall past 32")
	return r
}

func fig5OneCore(cfg pktio.Config, window sim.Duration) float64 {
	env := sim.NewEnv()
	defer env.Close()
	e := pktio.New(env, cfg)
	rate := model.PortPacketRate(64)
	for _, p := range e.Ports {
		p.Rx[0].SetOffered(rate, 64, nil)
	}
	ifaces := []*pktio.Iface{e.OpenIface(0, 0, 0), e.OpenIface(1, 0, 0)}
	env.Go("worker", func(p *sim.Proc) {
		var chunk []*packet.Buf // reused: Send consumes it synchronously
		for p.Now() < sim.Time(window) {
			progress := false
			for i, f := range ifaces {
				chunk = f.FetchChunk(p, cfg.BatchCap, chunk[:0])
				if len(chunk) == 0 {
					continue
				}
				progress = true
				e.Send(p, 0, 1-i, chunk)
			}
			if !progress && !ifaces[0].Wait(p) {
				return
			}
		}
	})
	env.Run(sim.Time(window))
	return e.DeliveredGbps(0)
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
		return ioHarness(cfg, workloads[k%len(workloads)], sizes[k/len(workloads)], window)
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
		if i == 0 {
			return ioHarness(cfg, wlForward, 64, 10*sim.Millisecond)
		}
		// Blind placement: every worker serves a queue on every port, so
		// each port needs one RSS queue per worker machine-wide.
		cfg.QueuesPerPort = model.CoresPerNode * cfg.Nodes
		return numaBlindForward(cfg, 10*sim.Millisecond)
	})
	r.AddRow("NUMA-aware", fmt.Sprintf("%.1f", vals[0]))
	r.AddRow("NUMA-blind", fmt.Sprintf("%.1f", vals[1]))
	r.Note("paper: ~40 Gbps aware vs below 25 Gbps blind (≈60%% improvement)")
	return r
}

// numaBlindForward runs forwarding with workers serving remote-node
// queues: half the packets suffer remote-memory costs and their DMA
// crosses both hubs.
func numaBlindForward(cfg pktio.Config, window sim.Duration) float64 {
	env := sim.NewEnv()
	defer env.Close()
	e := pktio.New(env, cfg)
	rate := model.PortPacketRate(64) / float64(cfg.QueuesPerPort)
	for _, p := range e.Ports {
		for _, q := range p.Rx {
			q.SetOffered(rate, 64, nil)
		}
	}
	workersPerNode := model.CoresPerNode
	portsPerNode := cfg.Ports / cfg.Nodes
	for n := 0; n < cfg.Nodes; n++ {
		for w := 0; w < workersPerNode; w++ {
			n, w := n, w
			// Blind placement: each worker serves its own queue (by
			// machine-wide index) of EVERY port, local and remote.
			g := n*workersPerNode + w
			var ifaces []*pktio.Iface
			for port := 0; port < cfg.Ports; port++ {
				ifaces = append(ifaces, e.OpenIface(port, g, n))
			}
			env.Go("worker", func(p *sim.Proc) {
				rr := 0
				var chunk []*packet.Buf // reused: Send consumes it synchronously
				for p.Now() < sim.Time(window) {
					progress := false
					for range ifaces {
						f := ifaces[rr%len(ifaces)]
						rr++
						chunk = f.FetchChunk(p, cfg.BatchCap, chunk[:0])
						if len(chunk) == 0 {
							continue
						}
						progress = true
						out := n*portsPerNode + rr%portsPerNode
						e.Send(p, n, out, chunk)
					}
					if !progress && !ifaces[0].Wait(p) {
						return
					}
				}
			})
		}
	}
	env.Run(sim.Time(window))
	return e.DeliveredGbps(0)
}
