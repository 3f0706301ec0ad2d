// fabric.go grows the analytic mesh model into a discrete-event fabric
// of PacketShader boxes: one sim partition per node, connected by
// latency-carrying sim.Links, advanced conservatively in parallel by
// sim.World. Where Evaluate answers "what
// throughput is admissible", the fabric *runs* the interconnect —
// batches traverse ingress, per-hop forwarding budgets, per-link
// serialization and propagation latency — and reports what was actually
// delivered, with end-to-end latency, under the topology's routing
// (mesh Direct/VLB, or leaf-spine ECMP). Wire and port serialization
// are arithmetic recurrences (end = max(now, free) + batch time, the
// batch time a per-run constant), not dedicated processes, and a node's
// generator and forwarder are sim tasks (step functions the event loop
// calls inline, no goroutine): a node is two tasks regardless of its
// degree, and a wake-up costs a function call, which is what lets a
// 128-leaf fabric run inside the bench budget.
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
	// k batches with probability ∝ k^-ZipfS, k = 1..maxFlowBatches, and
	// all its batches share RSS key material — so ECMP pins the whole
	// flow to one path, the way real 5-tuple hashing does.
	ZipfS float64
}

const (
	// batchBytes is the traffic granularity: one event-level unit of
	// transfer (a chunk of packets).
	batchBytes = 16 << 10
	batchBits  = batchBytes * 8
	// maxFlowBatches bounds the Zipf flow-size support.
	maxFlowBatches = 256
)

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
	// Late counts batches whose external port finishes them past the
	// horizon; InFlight, batches the horizon leaves in an inbox, in a
	// forwarding budget or on a link. Every generated batch is in
	// exactly one of Delivered, Late, RouteDrops, NodeDrops and
	// InFlight: the fabric's ledger, which every run checks.
	Late, InFlight uint64
}

// FabricMetrics are what a fabric run reports beside its FabricResult
// for a -metrics dump. Like the result they are independent of Workers.
type FabricMetrics struct {
	// World is the world's self-metrics: events, windows, barriers and
	// the schedule digest.
	World sim.WorldStats
	// InboxPeak is the deepest any forwarder's inbox got.
	InboxPeak int
	// SlotUtil is each egress slot's serializer utilisation in permille
	// (batches × txTime / horizon), node by node and slot by slot. A
	// slot whose backlog runs past the horizon can exceed 1000.
	SlotUtil []int64
}

// batch is the unit of simulated traffic: a burst of packets of one
// flow, batchBytes long. Batches travel between nodes by value through
// sim.Links and queues, so ownership hands off at scheduler-visible
// boundaries.
type batch struct {
	src, dst int
	hops     uint32
	hash     uint32 // RSS flow hash: VLB intermediate / ECMP path choice
	born     sim.Time
}

// fabricNode is one fabric box: a generator task emitting external
// ingress and a forwarder task draining the inbox. The forwarding
// budget is the forwarder's timed wake-up; link and external-port
// serialization are arithmetic FIFO recurrences (txFree/extFree) proven
// equivalent to the dedicated server procs they replaced — max(now,
// free) + bits/rate is exactly a single-server FIFO queue's completion
// time. Batches have one size, so every bits/rate is a constant
// newFabric computes once (fwdTime, extTime, txTime). Each mutable
// field is written by exactly one of the node's two tasks; fault events
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

	// read-only once the tasks are spawned
	topo    Topology
	horizon sim.Time
	fwdTime sim.Duration   // one batch through the forwarding budget
	extTime sim.Duration   // one batch through the external port (external nodes)
	txTime  []sim.Duration // one batch on the wire, per slot

	// generator-owned: what its steps keep between wake-ups. gen holds
	// the destinations this node offers traffic to, earliest next
	// emission at the root; genArmed says the armed wake-up emits to
	// that root (false before the first).
	gen        genHeap
	genArmed   bool
	rng        uint64
	zipf       []float64 // nil: every batch is its own flow
	flowLeft   []int
	flowHash   []uint32 // per-destination hash of the persistent key material
	genBatches uint64

	// forwarder-owned (up and busy side by side: a padded bool each
	// would take the node to a larger allocation size class)
	alive   []bool     // per-slot link carrier, fault-toggled
	up      bool       // node liveness, fault-toggled
	busy    bool       // cur is valid: the armed wake-up ends its budget
	txFree  []sim.Time // per-slot wire-free time (FIFO serialization)
	extFree sim.Time   // external port free time
	cur     batch      // the batch in the forwarding budget

	inboxPeak int // deepest inbox seen before a take

	forwards      uint64
	delivered     uint64
	deliveredBits uint64
	hopSum        uint64
	latSum        sim.Duration
	latMax        sim.Duration
	late          uint64
	routeDrops    uint64
	nodeDrops     uint64
}

// gbpsTime returns the serialization time of one batch at rate gbps:
// one Gbps moves one bit per nanosecond.
func gbpsTime(gbps float64) sim.Duration {
	return sim.DurationFromSeconds(batchBits / (gbps * 1e9))
}

// batchTime is gbpsTime for a configured rate. It returns an error
// unless the rate is finite and positive and one batch takes at least a
// picosecond and at most max — the part of the clock's range the
// horizon leaves, so adding a batch time to an instant of the run never
// wraps. (The float test comes first: converting an out-of-range float
// to a Duration is not defined, and every comparison with NaN is false.)
func batchTime(gbps float64, max sim.Duration) (sim.Duration, error) {
	if ps := batchBits / (gbps * 1e9) * float64(sim.Second); ps >= 0.5 && ps < float64(max) {
		if d := gbpsTime(gbps); d <= max {
			return d, nil
		}
	}
	return 0, fmt.Errorf("at %v Gbps a batch does not take between 1 ps and %.0f s", gbps, max.Seconds())
}

// genSlot is one destination of a generator: the emission time of its
// next batch and the batch period at the offered rate.
type genSlot struct {
	next     sim.Time
	interval sim.Duration
	dst      int
}

// before is the generator's emission order: earlier next emission,
// then lower destination index.
func (a *genSlot) before(b *genSlot) bool {
	return a.next < b.next || a.next == b.next && a.dst < b.dst
}

// genHeap holds a generator's destinations as a binary min-heap over
// (next, dst): the root is the earliest pending destination, ties to
// the lower index. Only the root's key ever changes (an emission moves
// it one interval later), so the heap needs one operation, down.
type genHeap []genSlot

// down sifts the hole at i down to where g belongs and puts g there.
func (h genHeap) down(i int, g genSlot) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&g) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = g
}

// init orders arbitrary slots into a heap.
func (h genHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, h[i])
	}
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

// fabric is one built fabric world: validated, wired and fault-armed,
// with no process spawned yet. RunFabric spawns the node tasks on it;
// the tests spawn the goroutine oracle on the same nodes instead.
type fabric struct {
	cfg   FabricConfig // defaults applied
	world *sim.World
	nodes []*fabricNode
	zipf  []float64
}

// checkMatrix rejects a traffic matrix the generators cannot run: on
// top of Matrix.check over the external nodes, every positive rate must
// be a batchTime (the generator divides by that interval and adds it to
// emission times).
func checkMatrix(m Matrix, ext int, max sim.Duration) error {
	if err := m.check(ext); err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	for i, row := range m {
		for j, rate := range row {
			if rate > 0 {
				if _, err := batchTime(rate, max); err != nil {
					return fmt.Errorf("fabric: matrix[%d][%d] batch interval: %w", i, j, err)
				}
			}
		}
	}
	return nil
}

// newFabric validates cfg and builds the world: one partition and node
// per topology node with its per-run batch times, the links, and the
// fault schedule.
func newFabric(cfg FabricConfig) (*fabric, error) {
	topo := cfg.Topo
	if topo == nil {
		return nil, fmt.Errorf("fabric: Topo is required")
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.LinkLatency <= 0 {
		return nil, fmt.Errorf("fabric: LinkLatency must be positive (it is the lookahead)")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("fabric: Horizon must be positive")
	}
	maxTime := math.MaxInt64 - cfg.Horizon
	n, ext := topo.Nodes(), topo.Externals()
	if err := checkMatrix(cfg.Matrix, ext, maxTime); err != nil {
		return nil, err
	}

	f := &fabric{cfg: cfg, world: sim.NewWorld(), nodes: make([]*fabricNode, n)}
	fail := func(err error) (*fabric, error) {
		f.world.Close()
		return nil, err
	}
	for i := 0; i < n; i++ {
		part := f.world.NewPartition(fmt.Sprintf("node%d", i))
		nd := &fabricNode{
			id:      i,
			part:    part,
			inbox:   sim.NewQueue[batch](part.Env(), 0),
			faultq:  sim.NewQueue[faults.Event](part.Env(), 0),
			up:      true,
			topo:    topo,
			horizon: sim.Time(cfg.Horizon),
		}
		f.nodes[i] = nd
		var err error
		if nd.fwdTime, err = batchTime(topo.ForwardGbps(i), maxTime); err != nil {
			return fail(fmt.Errorf("fabric: node %d forwarding budget: %w", i, err))
		}
		if i < ext {
			if nd.extTime, err = batchTime(topo.ExternalGbps(i), maxTime); err != nil {
				return fail(fmt.Errorf("fabric: node %d external port: %w", i, err))
			}
		}
	}
	for _, tl := range topo.Links() {
		nd := f.nodes[tl.From]
		tx, err := batchTime(tl.Gbps, maxTime)
		if err != nil {
			return fail(fmt.Errorf("fabric: node %d slot %d link: %w", tl.From, len(nd.out), err))
		}
		nd.out = append(nd.out, sim.NewLink(nd.part, f.nodes[tl.To].part,
			cfg.LinkLatency, f.nodes[tl.To].inbox))
		nd.txTime = append(nd.txTime, tx)
		nd.alive = append(nd.alive, true)
		nd.txFree = append(nd.txFree, 0)
	}
	if cfg.Faults != nil {
		if err := armFaults(cfg.Faults, f.nodes); err != nil {
			return fail(err)
		}
	}
	if cfg.Flows.ZipfS > 0 {
		f.zipf = zipfTable(cfg.Flows.ZipfS, maxFlowBatches)
	}
	return f, nil
}

// run advances the world to the horizon, closes it, and merges the
// per-node counters in node order: the result is independent of how
// many workers advanced the partitions. It panics if the ledger does
// not balance: a batch that ends in no terminal state is a lost count.
func (f *fabric) run() FabricResult {
	defer f.world.Close()
	f.world.Run(sim.Time(f.cfg.Horizon), f.cfg.Workers)

	res := FabricResult{OfferedGbps: f.cfg.Matrix.Total()}
	for _, nd := range f.nodes {
		res.Batches += nd.genBatches
		res.Forwards += nd.forwards
		res.Delivered += nd.delivered
		res.DeliveredGbps += float64(nd.deliveredBits)
		res.MeanHops += float64(nd.hopSum)
		res.MeanLatency += nd.latSum
		res.RouteDrops += nd.routeDrops
		res.NodeDrops += nd.nodeDrops
		res.Late += nd.late
		res.InFlight += uint64(nd.inbox.Len())
		if nd.busy {
			res.InFlight++
		}
		for _, l := range nd.out {
			res.InFlight += uint64(l.InFlight())
		}
		if nd.latMax > res.MaxLatency {
			res.MaxLatency = nd.latMax
		}
	}
	if res.Batches != res.Delivered+res.Late+res.RouteDrops+res.NodeDrops+res.InFlight {
		panic(fmt.Sprintf("cluster: fabric ledger does not balance: %d batches, %d delivered + %d late + %d route drops + %d node drops + %d in flight",
			res.Batches, res.Delivered, res.Late, res.RouteDrops, res.NodeDrops, res.InFlight))
	}
	res.DeliveredGbps /= f.cfg.Horizon.Seconds() * 1e9
	if res.Delivered > 0 {
		res.MeanHops /= float64(res.Delivered)
		res.MeanLatency /= sim.Duration(res.Delivered)
	}
	return res
}

// metrics merges a finished run's metrics in node order. It allocates,
// so RunFabric, the timed path, does not call it.
func (f *fabric) metrics() FabricMetrics {
	m := FabricMetrics{World: f.world.Stats()}
	for _, nd := range f.nodes {
		// Only the forwarder takes from the inbox, so between takes the
		// depth only grows: its peak is the depth before some take or
		// the depth left at the horizon.
		m.InboxPeak = max(m.InboxPeak, nd.inboxPeak, nd.inbox.Len())
		for slot, l := range nd.out {
			busy := sim.Duration(l.Sent) * nd.txTime[slot]
			m.SlotUtil = append(m.SlotUtil, int64(busy*1000/f.cfg.Horizon))
		}
	}
	return m
}

// RunFabric builds the fabric world and runs it to the horizon.
func RunFabric(cfg FabricConfig) (FabricResult, error) {
	f, err := startFabric(cfg)
	if err != nil {
		return FabricResult{}, err
	}
	return f.run(), nil
}

// RunFabricMetrics is RunFabric that also returns the run's metrics.
func RunFabricMetrics(cfg FabricConfig) (FabricResult, FabricMetrics, error) {
	f, err := startFabric(cfg)
	if err != nil {
		return FabricResult{}, FabricMetrics{}, err
	}
	res := f.run()
	return res, f.metrics(), nil
}

// startFabric builds the fabric world and spawns every node's tasks.
func startFabric(cfg FabricConfig) (*fabric, error) {
	f, err := newFabric(cfg)
	if err != nil {
		return nil, err
	}
	ext := f.cfg.Topo.Externals()
	for i, nd := range f.nodes { // nd is per-iteration: each task touches its own node only
		env := nd.part.Env()
		if i < ext {
			nd.initGenerator(f.cfg.Matrix[i], f.cfg.Seed, f.zipf)
			env.Task("gen", nd.generate)
		}
		env.Task("fwd", nd.forward)
	}
	return f, nil
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

// initGenerator builds the generator's heap from this node's matrix
// row: per destination with traffic, the batch period at the offered
// rate and a first emission phase-offset by the seed so nodes do not
// emit in lockstep.
func (nd *fabricNode) initGenerator(row []float64, seed uint64, zipf []float64) {
	nd.rng = seed ^ (uint64(nd.id+1) * 0x9e3779b97f4a7c15)
	for j, rate := range row {
		if rate <= 0 {
			continue
		}
		interval := gbpsTime(rate)
		nd.gen = append(nd.gen, genSlot{
			next:     sim.Time(splitmix64(&nd.rng) % uint64(interval)),
			interval: interval,
			dst:      j,
		})
	}
	nd.gen.init()
	nd.zipf = zipf
	if zipf != nil {
		nd.flowLeft = make([]int, len(row))
		nd.flowHash = make([]uint32, len(row))
	}
}

// generate is the generator task's step, a self-re-arming timer: emit
// the batch the wake-up was armed for, then arm the earliest pending
// destination (none is armed past the horizon, which ends the task).
// Batches leave at the matrix rate per destination. Flow key material
// feeds the Toeplitz hash that picks VLB intermediates and ECMP paths;
// with a FlowModel, keys persist for a Zipf-sized run of batches so a
// flow holds its path. Diagonal (self-destined) traffic is switched
// locally, as in Evaluate: it spends the forwarding budget and the
// external port but no link.
func (nd *fabricNode) generate(p *sim.Proc) {
	if nd.genArmed {
		g := nd.gen[0]
		j := g.dst
		b := batch{src: nd.id, dst: j, born: p.Now()}
		if nd.zipf == nil {
			b.hash = drawFlowHash(&nd.rng)
		} else {
			if nd.flowLeft[j] == 0 {
				nd.flowLeft[j] = zipfDraw(nd.zipf, &nd.rng)
				nd.flowHash[j] = drawFlowHash(&nd.rng)
			}
			nd.flowLeft[j]--
			b.hash = nd.flowHash[j]
		}
		nd.genBatches++
		nd.inbox.TryPut(b) // unbounded: own ingress enters the local inbox
		nd.gen.down(0, genSlot{next: g.next + sim.Time(g.interval), interval: g.interval, dst: j})
	}
	if len(nd.gen) == 0 || nd.gen[0].next > nd.horizon {
		return
	}
	nd.genArmed = true
	p.WakeAfter(sim.Duration(nd.gen[0].next - p.Now()))
}

// drawFlowHash draws a new flow's key material from the stream at rng
// and returns the fabric's flow hash of it: the paper's Toeplitz RSS,
// LUT-accelerated for the default key.
func drawFlowHash(rng *uint64) uint32 {
	flowSrc := uint32(splitmix64(rng))
	flowDst := uint32(splitmix64(rng))
	return nic.RSSHashIPv4(nic.DefaultRSSKey[:], flowSrc, flowDst,
		uint16(flowSrc>>16), uint16(flowDst>>16))
}

// forward is the forwarder task's step, the node's packet path as a
// two-state machine. Idle: take the next batch from the inbox (or
// register for one and return), fold in queued faults, and arm the
// forwarding budget — a plain timed wake-up, since this task is the
// budget's only user. Busy: the budget has elapsed, so route the batch
// and go idle again within the same step.
func (nd *fabricNode) forward(p *sim.Proc) {
	if nd.busy {
		nd.busy = false
		nd.route(p, nd.cur)
	}
	for {
		if n := nd.inbox.Len(); n > nd.inboxPeak {
			nd.inboxPeak = n
		}
		b, ok := nd.inbox.Await(p)
		if !ok {
			return
		}
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
		nd.cur, nd.busy = b, true
		p.WakeAfter(nd.fwdTime)
		return
	}
}

// route sends a batch that has spent its forwarding budget onward.
// Local deliveries pass through the external-port recurrence and count
// as delivered only if the port finishes them by the horizon — exactly
// when the dedicated egress proc this replaces would have executed its
// completion event — and as late otherwise. Transit batches pick an
// egress slot via the topology, serialize on the per-slot wire
// recurrence, and depart through SendAt.
func (nd *fabricNode) route(p *sim.Proc, b batch) {
	nd.forwards++
	b.hops++
	if b.dst == nd.id {
		end := p.Now()
		if nd.extFree > end {
			end = nd.extFree
		}
		end += sim.Time(nd.extTime)
		nd.extFree = end
		if end <= nd.horizon {
			nd.delivered++
			nd.deliveredBits += batchBits
			nd.hopSum += uint64(b.hops)
			lat := sim.Duration(end - b.born)
			nd.latSum += lat
			if lat > nd.latMax {
				nd.latMax = lat
			}
		} else {
			nd.late++
		}
		return
	}
	slot, ok := nd.topo.NextHop(nd.id, b.src, b.dst, b.hash, nd.alive)
	if !ok {
		nd.routeDrops++
		return
	}
	dep := p.Now()
	if nd.txFree[slot] > dep {
		dep = nd.txFree[slot]
	}
	dep += sim.Time(nd.txTime[slot])
	nd.txFree[slot] = dep
	nd.out[slot].SendAt(p, dep, b)
}
