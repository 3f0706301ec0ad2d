// Package pktio implements PacketShader's optimized packet I/O engine
// (§4): huge packet buffers with compact metadata, aggressive batching,
// software prefetch, multiqueue-aware user-level interfaces (Figure 8b),
// per-queue statistics, and NUMA-aware placement. The legacy Linux skb
// path is implemented alongside for the Table 3 breakdown and the
// batching ablations.
//
// CPU costs are charged in virtual time from the calibrated constants in
// internal/model; the functional work (buffer management, copies) really
// happens so the rest of the router operates on real frames.
package pktio

import (
	"strconv"

	"packetshader/internal/hw/nic"
	"packetshader/internal/hw/pcie"
	"packetshader/internal/mem"
	"packetshader/internal/model"
	"packetshader/internal/obs"
	"packetshader/internal/packet"
	"packetshader/internal/sim"
)

// BufferMode selects the packet-buffer allocation scheme.
type BufferMode int

// Buffer modes.
const (
	// ModeHuge is the huge packet buffer of §4.2 (the PacketShader
	// engine).
	ModeHuge BufferMode = iota
	// ModeSkb is the legacy per-packet skb allocation path of §4.1.
	ModeSkb
)

// Config describes the engine topology and the optimization knobs the
// paper evaluates.
type Config struct {
	Nodes         int // NUMA nodes (2 in the testbed)
	Ports         int // 10GbE ports (8)
	QueuesPerPort int // RSS RX queues per port
	BatchCap      int // max packets fetched per batch (Figure 5 sweep)

	Mode BufferMode

	// AlignQueueData pads per-queue state to cache lines; when false the
	// false-sharing penalty of §4.4 applies.
	AlignQueueData bool
	// PerQueueCounters keeps statistics per queue; when false every
	// packet pays a coherence miss on shared per-NIC counters (§4.4).
	PerQueueCounters bool
	// Prefetch enables the software prefetch of §4.3 that hides the
	// compulsory cache misses of DMA-invalidated buffers.
	Prefetch bool
}

// DefaultConfig is the full PacketShader engine on the paper's testbed.
func DefaultConfig() Config {
	return Config{
		Nodes:            model.NumNodes,
		Ports:            model.NumPorts,
		QueuesPerPort:    model.CoresPerNode - 1, // workers per node (§5.1)
		BatchCap:         model.MaxChunkSize,
		Mode:             ModeHuge,
		AlignQueueData:   true,
		PerQueueCounters: true,
		Prefetch:         true,
	}
}

// Port is one 10GbE port: its RSS RX queues and TX side.
type Port struct {
	ID   int
	Node int
	Rx   []*nic.RxQueue
	Tx   *nic.TxPort
}

// Engine is the packet I/O engine instance for the whole machine.
type Engine struct {
	Env   *sim.Env
	Cfg   Config
	IOHs  []*pcie.IOH
	Ports []*Port
	Pool  *packet.BufPool

	// skb is the legacy allocator (ModeSkb), created lazily on first
	// use: ModeHuge engines never pay its 16MB arena. In ModeHuge the
	// Pool is the huge buffer: slab-carved, size-classed cells recycled
	// without per-packet allocation.
	skb *mem.SkbAllocator

	// breakdown accumulates RX cycles per functional bin (Table 3).
	breakdown Breakdown
}

// Breakdown is the Table 3 cycle accounting.
type Breakdown struct {
	SkbInit      float64
	SkbAlloc     float64
	MemSubsystem float64
	Driver       float64
	Others       float64
	CacheMisses  float64
}

// Total sums all bins.
func (b *Breakdown) Total() float64 {
	return b.SkbInit + b.SkbAlloc + b.MemSubsystem + b.Driver + b.Others + b.CacheMisses
}

// New builds the engine and its port topology: ports are split evenly
// across nodes (Figure 3: two dual-port NICs per IOH).
func New(env *sim.Env, cfg Config) *Engine {
	e := &Engine{
		Env:  env,
		Cfg:  cfg,
		Pool: packet.NewBufPool(model.HugeCellDataBytes),
	}
	for n := 0; n < cfg.Nodes; n++ {
		e.IOHs = append(e.IOHs, pcie.NewIOH(env, n))
	}
	portsPerNode := cfg.Ports / cfg.Nodes
	if portsPerNode == 0 {
		portsPerNode = cfg.Ports
	}
	for i := 0; i < cfg.Ports; i++ {
		node := i / portsPerNode
		if node >= cfg.Nodes {
			node = cfg.Nodes - 1
		}
		p := &Port{ID: i, Node: node}
		path := []*pcie.IOH{e.IOHs[node]}
		for q := 0; q < cfg.QueuesPerPort; q++ {
			rq := nic.NewRxQueue(env, i, q, model.RxRingSize, e.Pool, path)
			p.Rx = append(p.Rx, rq)
		}
		p.Tx = nic.NewTxPort(env, i, model.TxRingSize, path)
		e.Ports = append(e.Ports, p)
	}
	return e
}

// Iface is a user-level virtual interface bound to one (NIC, RX queue)
// pair (Figure 8b): exactly one worker owns it, so no lock contention.
type Iface struct {
	Engine *Engine
	Port   *Port
	Queue  *nic.RxQueue
	// WorkerNode is the NUMA node of the owning worker; node-crossing
	// access applies the §4.5 penalties.
	WorkerNode int
}

// OpenIface binds (port, queue) for a worker on workerNode. With
// NUMA-blind placement the RX DMA is routed across both hubs.
func (e *Engine) OpenIface(port, queue, workerNode int) *Iface {
	p := e.Ports[port]
	q := p.Rx[queue]
	if workerNode != p.Node && len(e.IOHs) > 1 {
		// Node-crossing DMA traverses both IOHs (§4.5).
		q.SetDMAPath([]*pcie.IOH{e.IOHs[0], e.IOHs[1]})
	}
	return &Iface{Engine: e, Port: p, Queue: q, WorkerNode: workerNode}
}

// remoteFactor is the memory-cost multiplier for node-crossing work.
func (f *Iface) remoteFactor() float64 {
	if f.WorkerNode != f.Port.Node {
		return model.RemoteMemFactor
	}
	return 1
}

// hugeRxCycles is the ModeHuge per-packet cost for a frame of size
// bytes.
func (f *Iface) hugeRxCycles(size int) float64 {
	e := f.Engine
	c := model.IOPerPacketCycles * model.IORxShare
	if size > 64 {
		// The copy into the user chunk grows with packet size; the
		// 64B copy is inside the calibrated base.
		c += float64(size-64) * model.CopyCyclesPerByte
	}
	if !e.Cfg.Prefetch {
		c += model.CompulsoryMissCycles
		e.breakdown.CacheMisses += model.CompulsoryMissCycles
	}
	if !e.Cfg.AlignQueueData {
		c += model.FalseSharingPenaltyCycles
	}
	if !e.Cfg.PerQueueCounters {
		c += model.SharedCounterPenaltyCycles
	}
	return c * f.remoteFactor()
}

// skbRxCycles is the ModeSkb per-packet cost: the full Table 3 stack,
// really performing the allocations and the breakdown accounting, the
// same for every packet size.
func (f *Iface) skbRxCycles() float64 {
	e := f.Engine
	if e.skb == nil {
		e.skb = mem.NewSkbAllocator(mem.NewArena(4096))
	}
	if skb, err := e.skb.Alloc(); err == nil {
		e.skb.Free(skb)
	}
	c := model.SkbInitCycles + model.SkbAllocWrapperCycles +
		4*model.SlabOpCycles + model.SkbDriverCycles +
		model.SkbOtherCycles + model.CompulsoryMissCycles
	e.breakdown.SkbInit += model.SkbInitCycles
	e.breakdown.SkbAlloc += model.SkbAllocWrapperCycles
	e.breakdown.MemSubsystem += 4 * model.SlabOpCycles
	e.breakdown.Driver += model.SkbDriverCycles
	e.breakdown.Others += model.SkbOtherCycles
	e.breakdown.CacheMisses += model.CompulsoryMissCycles
	if !e.Cfg.AlignQueueData {
		c += model.FalseSharingPenaltyCycles
	}
	if !e.Cfg.PerQueueCounters {
		c += model.SharedCounterPenaltyCycles
	}
	return c * f.remoteFactor()
}

// FetchChunk fetches up to max packets from the interface, charging the
// worker's CPU time for the batch and per-packet RX costs. Returns nil
// when the queue is empty.
func (f *Iface) FetchChunk(p *sim.Proc, max int, out []*packet.Buf) []*packet.Buf {
	if max > f.Engine.Cfg.BatchCap {
		max = f.Engine.Cfg.BatchCap
	}
	got := f.Queue.Fetch(p, max, out)
	n := len(got) - len(out)
	if n <= 0 {
		return nil
	}
	cycles := model.IOBatchCycles * model.IORxShare * f.remoteFactor()
	for _, b := range got[len(out):] {
		if f.Engine.Cfg.Mode == ModeHuge {
			// The copy cost stops growing at the cell size.
			cycles += f.hugeRxCycles(min(b.Size(), model.HugeCellDataBytes))
		} else {
			cycles += f.skbRxCycles()
		}
	}
	p.Sleep(model.Cycles(cycles))
	return got
}

// Wait blocks until the interface has packets, in the
// interrupt-then-poll style of §5.2. Returns false if the queue has no
// offered load.
func (f *Iface) Wait(p *sim.Proc) bool {
	return f.Queue.WaitForPackets(p)
}

// Send transmits bufs on the engine's port tx, charging the worker the
// TX half of the batch and per-packet costs.
func (e *Engine) Send(p *sim.Proc, workerNode, port int, bufs []*packet.Buf) {
	if len(bufs) == 0 {
		return
	}
	tgt := e.Ports[port]
	factor := 1.0
	if workerNode != tgt.Node {
		// §5.1: forwarding to ports in the other node is done by DMA,
		// not CPU — but descriptor writes still touch remote memory.
		factor = model.RemoteMemFactor
	}
	cycles := model.IOBatchCycles * model.IOTxShare * factor
	cycles += float64(len(bufs)) * model.IOPerPacketCycles * model.IOTxShare * factor
	if !e.Cfg.PerQueueCounters {
		cycles += float64(len(bufs)) * model.SharedCounterPenaltyCycles
	}
	p.Sleep(model.Cycles(cycles))
	tgt.Tx.TransmitBlocking(p, bufs)
}

// RxBreakdown returns the accumulated Table 3 accounting.
func (e *Engine) RxBreakdown() Breakdown { return e.breakdown }

// ObserveStats snapshots the engine's per-queue counters into reg
// (aggregate and per-port), the same on-demand aggregation style as
// AggregateStats. Ports iterate in slice order, so counter creation
// order — and therefore the metrics dump — is deterministic.
func (e *Engine) ObserveStats(reg *obs.Registry) {
	if reg == nil {
		return
	}
	var rx, rxBytes, rxDropped, tx, txBytes, txDropped, txCarrier uint64
	for _, p := range e.Ports {
		var prx, prxd uint64
		for _, q := range p.Rx {
			prx += q.Stats.Packets
			rxBytes += q.Stats.Bytes
			prxd += q.Stats.Dropped
		}
		rx += prx
		rxDropped += prxd
		tx += p.Tx.Stats.Packets
		txBytes += p.Tx.Stats.Bytes
		txDropped += p.Tx.Stats.Dropped
		txCarrier += p.Tx.CarrierDrops
		name := "pktio.port" + strconv.Itoa(p.ID)
		reg.Counter(name + ".rx_packets").Set(prx)
		reg.Counter(name + ".rx_dropped").Set(prxd)
		reg.Counter(name + ".tx_packets").Set(p.Tx.Stats.Packets)
		reg.Counter(name + ".tx_dropped").Set(p.Tx.Stats.Dropped)
	}
	reg.Counter("pktio.rx_packets").Set(rx)
	reg.Counter("pktio.rx_bytes").Set(rxBytes)
	reg.Counter("pktio.rx_dropped").Set(rxDropped)
	reg.Counter("pktio.tx_packets").Set(tx)
	reg.Counter("pktio.tx_bytes").Set(txBytes)
	reg.Counter("pktio.tx_dropped").Set(txDropped)
	reg.Counter("pktio.tx_carrier_drops").Set(txCarrier)
}

// AggregateStats sums per-queue counters on demand, the way the §4.4
// design computes per-NIC statistics only when ifconfig asks.
func (e *Engine) AggregateStats() (rx, rxDropped, tx, txDropped uint64) {
	for _, p := range e.Ports {
		for _, q := range p.Rx {
			rx += q.Stats.Packets
			rxDropped += q.Stats.Dropped
		}
		tx += p.Tx.Stats.Packets
		txDropped += p.Tx.Stats.Dropped
	}
	return
}

// DeliveredWire returns total delivered TX wire time across all ports.
func (e *Engine) DeliveredWire() float64 {
	var wire float64
	for _, p := range e.Ports {
		wire += p.Tx.Delivered().Seconds()
	}
	return wire
}

// DeliveredGbps returns the aggregate delivered TX throughput in the
// paper's wire-Gbps metric over the elapsed window.
func (e *Engine) DeliveredGbps(since sim.Time) float64 {
	elapsed := sim.Duration(e.Env.Now() - since).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return e.DeliveredWire() / elapsed * model.PortRateBps / 1e9
}
