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

	Mode BufferMode

	// QueueLocal is the §4.4 per-queue layout: queue state padded to
	// cache lines and statistics kept per queue. When false every
	// packet pays the false-sharing penalty and a coherence miss on
	// shared per-NIC counters.
	QueueLocal bool
	// Prefetch enables the software prefetch of §4.3 that hides the
	// compulsory cache misses of DMA-invalidated buffers.
	Prefetch bool
}

// DefaultConfig is the full PacketShader engine on the paper's testbed.
func DefaultConfig() Config {
	return Config{
		Nodes:         model.NumNodes,
		Ports:         model.NumPorts,
		QueuesPerPort: model.CoresPerNode - 1, // workers per node (§5.1)
		Mode:          ModeHuge,
		QueueLocal:    true,
		Prefetch:      true,
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

	// blocked clocks the virtual time callers spend waiting in the
	// engine rather than working: from FetchWait until the previous
	// fetch's RX DMA is far enough along, and in Post on a full TX ring.
	// (Waiting for packets is idling, not counted here.)
	blocked sim.BusyClock
}

// Blocked returns the virtual time callers have spent waiting in the
// engine so far, a wait in progress counted up to now.
func (e *Engine) Blocked() sim.Duration { return e.blocked.At(e.Env.Now()) }

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
		node := min(i/portsPerNode, cfg.Nodes-1)
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
	since      sim.Time // when the fetch in progress began (FetchWait)
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
		c += float64(float64(size-64) * model.CopyCyclesPerByte)
	}
	if !e.Cfg.Prefetch {
		c += model.CompulsoryMissCycles
		e.breakdown.CacheMisses += model.CompulsoryMissCycles
	}
	if !e.Cfg.QueueLocal {
		c += model.FalseSharingPenaltyCycles
		c += model.SharedCounterPenaltyCycles
	}
	return float64(c * f.remoteFactor())
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
	if !e.Cfg.QueueLocal {
		c += model.FalseSharingPenaltyCycles
		c += model.SharedCounterPenaltyCycles
	}
	return float64(c * f.remoteFactor())
}

// FetchWait starts a fetch from the interface: whether it must wait for
// the previous fetch's RX DMA, and until when. The wait counts in
// Blocked from now until FetchNow, which must follow.
func (f *Iface) FetchWait() (sim.Time, bool) {
	f.since = f.Engine.Env.Now()
	f.Engine.blocked.Begin(f.since)
	return f.Queue.DMAWait()
}

// FetchNow is the rest of the fetch once FetchWait's wait is over: it
// fetches at most max packets, the caller's batch, into out and returns
// them with the CPU time, the batch and per-packet RX costs, they cost
// the caller (nil and 0 when the queue is empty).
func (f *Iface) FetchNow(max int, out []*packet.Buf) ([]*packet.Buf, sim.Duration) {
	f.Engine.blocked.End(f.since, f.Engine.Env.Now())
	got := f.Queue.FetchNow(max, out)
	n := len(got) - len(out)
	if n <= 0 {
		return nil, 0
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
	return got, model.Cycles(cycles)
}

// SendCost is the CPU time a worker on workerNode spends on n packets
// for port before it posts them: the TX half of the batch and
// per-packet costs.
func (e *Engine) SendCost(workerNode, port, n int) sim.Duration {
	factor := 1.0
	if workerNode != e.Ports[port].Node {
		// §5.1: forwarding to ports in the other node is done by DMA,
		// not CPU — but descriptor writes still touch remote memory.
		factor = model.RemoteMemFactor
	}
	cycles := float64(model.IOBatchCycles * model.IOTxShare * factor)
	cycles += float64(float64(n) * model.IOPerPacketCycles * model.IOTxShare * factor)
	if !e.Cfg.QueueLocal {
		cycles += float64(float64(n) * model.SharedCounterPenaltyCycles)
	}
	return model.Cycles(cycles)
}

// Post sends bufs on port once SendCost's time is over, first called at
// since, the instant it ends, and again at each instant it returns: it
// hands bufs to the TX ring and reports false, or reports true and when
// to call it again, the ring being full. A port whose carrier is down
// at since drops bufs at once. The wait counts in Blocked.
func (e *Engine) Post(port int, bufs []*packet.Buf, since sim.Time) (sim.Time, bool) {
	tx, now := e.Ports[port].Tx, e.Env.Now()
	first := now == since // a wait always ends after since
	if first {
		e.blocked.Begin(since)
	}
	if !first || tx.CarrierUp() {
		if next, full := tx.Room(len(bufs)); full {
			return next, true
		}
	}
	tx.Transmit(bufs)
	e.blocked.End(since, now)
	return 0, false
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
