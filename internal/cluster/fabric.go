// fabric.go grows the analytic mesh model into a discrete-event fabric
// of PacketShader boxes: one sim partition per node, connected by
// latency-carrying sim.Links, advanced conservatively in parallel by
// sim.World (ROADMAP items 1 and 2). Where Evaluate answers "what
// throughput is admissible", the fabric *runs* the interconnect —
// batches traverse ingress, per-hop forwarding budgets, per-link
// serialization and propagation latency — and reports what was actually
// delivered, with end-to-end latency, under the topology's routing
// (mesh Direct/VLB, or leaf-spine ECMP). Wire and port serialization
// are arithmetic recurrences (end = max(now, free) + bits/rate), not
// dedicated processes: a node is two procs (generator and forwarder)
// regardless of its degree, which is what lets a 128-leaf fabric run
// inside the bench budget.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"packetshader/internal/faults"
	"packetshader/internal/hw/nic"
	"packetshader/internal/sim"
)

// FlowModel shapes the traffic generators' flow structure. The zero
// value is the legacy model: every batch is its own flow (fresh RSS key
// material per batch).
type FlowModel struct {
	// ZipfS > 0 enables heavy-tailed flow sizes: a flow persists for
	// k batches with probability ∝ k^-ZipfS, k = 1..MaxBatches, and
	// all its batches share RSS key material — so ECMP pins the whole
	// flow to one path, the way real 5-tuple hashing does.
	ZipfS float64
	// MaxBatches bounds the flow-size support (default 256).
	MaxBatches int
}

// FabricConfig describes one fabric run.
type FabricConfig struct {
	// Topo is the interconnect: a FullMesh (Direct or VLB — DirectVLB's
	// spill decision needs global link-occupancy knowledge and is left
	// to the analytic model) or a LeafSpine. Required.
	Topo Topology
	// Matrix is the offered load, Gbps entering external node i
	// destined to external node j.
	Matrix Matrix
	// LinkLatency is the propagation delay of every fabric link — the
	// world's lookahead. Must be positive.
	LinkLatency sim.Duration
	// BatchBytes is the traffic granularity: one event-level unit of
	// transfer (a chunk of packets), default 16 KiB.
	BatchBytes int
	// Horizon is the simulated duration.
	Horizon sim.Duration
	// Seed drives flow-key generation (and thus VLB intermediates and
	// ECMP path choices).
	Seed uint64
	// Workers is the number of host goroutines advancing partitions
	// (the psbench -p value); any value yields byte-identical results.
	Workers int
	// Flows shapes flow sizes; the zero value is one flow per batch.
	Flows FlowModel
	// Faults schedules deterministic link and node failures: link
	// events (KindLinkDown/Up) target egress slot Port of node Node;
	// GPU events (KindGPUFail/Repair) take the whole node down — a
	// dead node blackholes everything it would forward. Other fault
	// kinds model single-box hardware and are ignored here.
	Faults *faults.Plan
}

// FabricResult is the merged outcome of a fabric run.
type FabricResult struct {
	OfferedGbps   float64
	DeliveredGbps float64
	// MeanHops counts forwarding operations per delivered batch
	// (ingress node included), comparable to Result.MeanHops.
	MeanHops float64
	// MeanLatency/MaxLatency are end-to-end batch latencies
	// (ingress emission to external egress).
	MeanLatency, MaxLatency sim.Duration
	Batches, Delivered      uint64
	Forwards                uint64
	// RouteDrops counts batches blackholed because every candidate
	// egress link was down; NodeDrops, batches consumed by a dead
	// node.
	RouteDrops, NodeDrops uint64
}

// batch is the unit of simulated traffic: a fixed-size burst of packets
// of one flow. Batches travel between nodes by value through sim.Links
// and queues, so ownership hands off at scheduler-visible boundaries.
type batch struct {
	src, dst int
	hops     uint32
	hash     uint32 // RSS flow hash: VLB intermediate / ECMP path choice
	bits     uint64
	born     sim.Time
	flowSrc  uint32 // flow key material behind hash
	flowDst  uint32
}

// fabricNode is one fabric box: a generator proc emitting external
// ingress and a forwarder proc draining the inbox. The forwarding
// budget is the forwarder's Sleep; link and external-port serialization
// are arithmetic FIFO recurrences (txFree/extFree) proven equivalent to
// the dedicated server procs they replaced — max(now, free) + bits/rate
// is exactly a single-server FIFO queue's completion time. Each counter
// field is written by exactly one of the node's procs; fault events
// reach the forwarder through the faultq hand-off (the At callback only
// enqueues, the forwarder drains before consulting liveness), so
// alive/up stay forwarder-owned. Everything merges in node order after
// the run.
type fabricNode struct {
	id     int
	part   *sim.Partition
	inbox  *sim.Queue[batch]
	faultq *sim.Queue[faults.Event] // scheduler→forwarder fault hand-off
	out    []*sim.Link[batch]
	gbps   []float64 // per-slot link rate
	alive  []bool    // per-slot link carrier, fault-toggled
	up     bool      // node liveness, fault-toggled

	txFree  []sim.Time // per-slot wire-free time (FIFO serialization)
	extFree sim.Time   // external port free time

	// generator-owned counters
	genBatches uint64
	genBits    uint64
	// forwarder-owned counters
	forwards      uint64
	delivered     uint64
	deliveredBits uint64
	hopSum        uint64
	latSum        sim.Duration
	latMax        sim.Duration
	routeDrops    uint64
	nodeDrops     uint64
}

// gbpsTime returns the serialization time of bits at rate gbps: one
// Gbps moves one bit per nanosecond.
func gbpsTime(bits uint64, gbps float64) sim.Duration {
	return sim.DurationFromSeconds(float64(bits) / (gbps * 1e9))
}

// splitmix64 draws the next value of the stateful sim.SplitMix64
// stream at *state.
func splitmix64(state *uint64) uint64 {
	r := sim.SplitMix64(*state)
	*state += sim.SplitMixGamma
	return r
}

// zipfTable precomputes the cumulative weights of k^-s over
// k = 1..max for inverse-CDF sampling.
func zipfTable(s float64, max int) []float64 {
	cum := make([]float64, max)
	var total float64
	for k := 1; k <= max; k++ {
		total += math.Pow(float64(k), -s)
		cum[k-1] = total
	}
	return cum
}

// zipfDraw samples a flow size from the table.
func zipfDraw(cum []float64, rng *uint64) int {
	u := float64(splitmix64(rng)>>11) / float64(uint64(1)<<53)
	return sort.SearchFloat64s(cum, u*cum[len(cum)-1]) + 1
}

// RunFabric builds the fabric world and runs it to the horizon.
func RunFabric(cfg FabricConfig) (FabricResult, error) {
	topo := cfg.Topo
	if topo == nil {
		return FabricResult{}, fmt.Errorf("fabric: Topo is required")
	}
	if err := topo.Validate(); err != nil {
		return FabricResult{}, err
	}
	ext := topo.Externals()
	if len(cfg.Matrix) != ext {
		return FabricResult{}, fmt.Errorf("fabric: matrix size %d != external nodes %d", len(cfg.Matrix), ext)
	}
	if cfg.LinkLatency <= 0 {
		return FabricResult{}, fmt.Errorf("fabric: LinkLatency must be positive (it is the lookahead)")
	}
	if cfg.Horizon <= 0 {
		return FabricResult{}, fmt.Errorf("fabric: Horizon must be positive")
	}
	if cfg.BatchBytes <= 0 {
		cfg.BatchBytes = 16 << 10
	}
	if cfg.Flows.ZipfS > 0 && cfg.Flows.MaxBatches <= 0 {
		cfg.Flows.MaxBatches = 256
	}
	n := topo.Nodes()

	world := sim.NewWorld()
	defer world.Close()
	nodes := make([]*fabricNode, n)
	for i := 0; i < n; i++ {
		part := world.NewPartition(fmt.Sprintf("node%d", i))
		nodes[i] = &fabricNode{
			id:     i,
			part:   part,
			inbox:  sim.NewQueue[batch](part.Env(), 0),
			faultq: sim.NewQueue[faults.Event](part.Env(), 0),
			up:     true,
		}
	}
	for _, tl := range topo.Links() {
		nd := nodes[tl.From]
		nd.out = append(nd.out, sim.NewLink(nd.part, nodes[tl.To].part,
			cfg.LinkLatency, nodes[tl.To].inbox))
		nd.gbps = append(nd.gbps, tl.Gbps)
		nd.alive = append(nd.alive, true)
		nd.txFree = append(nd.txFree, 0)
	}
	if cfg.Faults != nil {
		if err := armFaults(cfg.Faults, nodes); err != nil {
			return FabricResult{}, err
		}
	}
	var zipf []float64
	if cfg.Flows.ZipfS > 0 {
		zipf = zipfTable(cfg.Flows.ZipfS, cfg.Flows.MaxBatches)
	}
	for i := 0; i < n; i++ {
		nd := nodes[i] // loop-local: each root touches its own node only
		env := nd.part.Env()
		if i < ext {
			env.Go("gen", func(p *sim.Proc) { nd.generate(p, &cfg, zipf) })
		}
		env.Go("fwd", func(p *sim.Proc) { nd.forward(p, &cfg, topo) })
	}
	world.Run(sim.Time(cfg.Horizon), cfg.Workers)

	// Merge per-node counters in node order: the result is independent
	// of how many workers advanced the partitions.
	res := FabricResult{OfferedGbps: cfg.Matrix.Total()}
	for _, nd := range nodes {
		res.Batches += nd.genBatches
		res.Forwards += nd.forwards
		res.Delivered += nd.delivered
		res.DeliveredGbps += float64(nd.deliveredBits)
		res.MeanHops += float64(nd.hopSum)
		res.MeanLatency += nd.latSum
		res.RouteDrops += nd.routeDrops
		res.NodeDrops += nd.nodeDrops
		if nd.latMax > res.MaxLatency {
			res.MaxLatency = nd.latMax
		}
	}
	res.DeliveredGbps /= cfg.Horizon.Seconds() * 1e9
	if res.Delivered > 0 {
		res.MeanHops /= float64(res.Delivered)
		res.MeanLatency /= sim.Duration(res.Delivered)
	}
	return res, nil
}

// armFaults schedules the plan's link and node events on each affected
// node's own environment, so a fault only ever touches partition-local
// state (a leaf never reads a spine's liveness — a dead node simply
// consumes and drops what reaches it). The callback only enqueues the
// event on the node's faultq; the forwarder drains the queue before
// consulting alive/up, so the toggles themselves stay forwarder-owned
// (the same scheduler→proc hand-off as the core control mailbox).
// Liveness is only ever *read* when a batch is processed, and at any
// instant the callback's setup-time seq sorts before a batch wakeup,
// so drain-before-use observes exactly the state the direct write
// would have.
func armFaults(plan *faults.Plan, nodes []*fabricNode) error {
	for _, ev := range plan.Events() {
		if ev.Node < 0 || ev.Node >= len(nodes) {
			return fmt.Errorf("fabric: fault event targets node %d of %d", ev.Node, len(nodes))
		}
		nd := nodes[ev.Node]
		switch ev.Kind {
		case faults.KindLinkDown, faults.KindLinkUp:
			if ev.Port < 0 || ev.Port >= len(nd.alive) {
				return fmt.Errorf("fabric: fault event targets slot %d of node %d (degree %d)", ev.Port, ev.Node, len(nd.alive))
			}
		case faults.KindGPUFail, faults.KindGPURepair:
		default:
			// Single-box hardware kinds (PCIe retrain, RX drop bursts)
			// have no fabric-level meaning.
			continue
		}
		ev := ev
		nd.part.Env().At(sim.Time(ev.At), func() { nd.faultq.TryPut(ev) })
	}
	return nil
}

// applyFault folds one queued fault event into the forwarder's view.
func (nd *fabricNode) applyFault(ev faults.Event) {
	switch ev.Kind {
	case faults.KindLinkDown, faults.KindLinkUp:
		nd.alive[ev.Port] = ev.Kind == faults.KindLinkUp
	case faults.KindGPUFail, faults.KindGPURepair:
		nd.up = ev.Kind == faults.KindGPURepair
	}
}

// generate emits this node's external ingress: per destination, batches
// at the matrix rate, phase-offset by the seed so nodes do not emit in
// lockstep. Flow key material feeds the Toeplitz hash that picks VLB
// intermediates and ECMP paths; with a FlowModel, keys persist for a
// Zipf-sized run of batches so a flow holds its path. Diagonal
// (self-destined) traffic is switched locally, as in Evaluate: it
// spends the forwarding budget and the external port but no link.
func (nd *fabricNode) generate(p *sim.Proc, cfg *FabricConfig, zipf []float64) {
	ext := len(cfg.Matrix)
	bits := uint64(cfg.BatchBytes) * 8
	// next[j] is the emission time of the next batch to j; interval[j]
	// the batch period at the offered rate.
	next := make([]sim.Time, ext)
	interval := make([]sim.Duration, ext)
	rng := cfg.Seed ^ (uint64(nd.id+1) * 0x9e3779b97f4a7c15)
	active := 0
	for j := 0; j < ext; j++ {
		rate := cfg.Matrix[nd.id][j]
		if rate <= 0 {
			next[j] = -1
			continue
		}
		interval[j] = gbpsTime(bits, rate)
		next[j] = sim.Time(splitmix64(&rng) % uint64(interval[j]))
		active++
	}
	if active == 0 {
		return
	}
	var flowLeft []int
	var flowKey []batch // per-destination persistent key material
	if zipf != nil {
		flowLeft = make([]int, ext)
		flowKey = make([]batch, ext)
	}
	for {
		// Earliest pending destination; ties go to the lower index.
		j := -1
		for k := 0; k < ext; k++ {
			if next[k] >= 0 && (j < 0 || next[k] < next[j]) {
				j = k
			}
		}
		if sim.Duration(next[j]) > cfg.Horizon {
			return
		}
		p.SleepUntil(next[j])
		b := batch{src: nd.id, dst: j, bits: bits, born: p.Now()}
		if zipf == nil {
			b.flowSrc = uint32(splitmix64(&rng))
			b.flowDst = uint32(splitmix64(&rng))
			b.hash = rssHash(b.flowSrc, b.flowDst)
		} else {
			if flowLeft[j] == 0 {
				flowLeft[j] = zipfDraw(zipf, &rng)
				fk := &flowKey[j]
				fk.flowSrc = uint32(splitmix64(&rng))
				fk.flowDst = uint32(splitmix64(&rng))
				fk.hash = rssHash(fk.flowSrc, fk.flowDst)
			}
			flowLeft[j]--
			b.flowSrc = flowKey[j].flowSrc
			b.flowDst = flowKey[j].flowDst
			b.hash = flowKey[j].hash
		}
		nd.genBatches++
		nd.genBits += bits
		nd.inbox.TryPut(b) // unbounded: own ingress enters the local inbox
		next[j] += sim.Time(interval[j])
	}
}

// rssHash is the fabric's flow hash: the paper's Toeplitz RSS over the
// batch's key material, LUT-accelerated for the default key.
func rssHash(flowSrc, flowDst uint32) uint32 {
	return nic.RSSHashIPv4(nic.DefaultRSSKey[:], flowSrc, flowDst,
		uint16(flowSrc>>16), uint16(flowDst>>16))
}

// forward is the node's packet path: drain the inbox, spend the
// forwarding budget, and route each batch onward. Local deliveries pass
// through the external-port recurrence and count only if the port
// finishes them by the horizon — exactly when the dedicated egress proc
// this replaces would have executed its completion event. Transit
// batches pick an egress slot via the topology, serialize on the
// per-slot wire recurrence, and depart through SendAt. The forwarding
// budget is a plain Sleep: this proc is the budget's only user, so a
// shared Server would add nothing.
func (nd *fabricNode) forward(p *sim.Proc, cfg *FabricConfig, topo Topology) {
	fwdGbps := topo.ForwardGbps(nd.id)
	extGbps := topo.ExternalGbps(nd.id)
	horizon := sim.Time(cfg.Horizon)
	for {
		b := nd.inbox.Get(p)
		for {
			ev, ok := nd.faultq.TryGet()
			if !ok {
				break
			}
			nd.applyFault(ev)
		}
		if !nd.up {
			nd.nodeDrops++
			continue
		}
		p.Sleep(gbpsTime(b.bits, fwdGbps))
		nd.forwards++
		b.hops++
		if b.dst == nd.id {
			end := p.Now()
			if nd.extFree > end {
				end = nd.extFree
			}
			end += sim.Time(gbpsTime(b.bits, extGbps))
			nd.extFree = end
			if end <= horizon {
				nd.delivered++
				nd.deliveredBits += b.bits
				nd.hopSum += uint64(b.hops)
				lat := sim.Duration(end - b.born)
				nd.latSum += lat
				if lat > nd.latMax {
					nd.latMax = lat
				}
			}
			continue
		}
		slot, ok := topo.NextHop(nd.id, &b, nd.alive)
		if !ok {
			nd.routeDrops++
			continue
		}
		dep := p.Now()
		if nd.txFree[slot] > dep {
			dep = nd.txFree[slot]
		}
		dep += sim.Time(gbpsTime(b.bits, nd.gbps[slot]))
		nd.txFree[slot] = dep
		nd.out[slot].SendAt(p, dep, b)
	}
}
