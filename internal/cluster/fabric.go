// fabric.go grows the analytic mesh model into a discrete-event fabric
// of PacketShader boxes: one sim partition per node, connected by
// latency-carrying sim.Links, advanced conservatively in parallel by
// sim.World. Where Evaluate answers "what
// throughput is admissible", the fabric *runs* the interconnect —
// batches traverse ingress, per-hop forwarding budgets, per-link
// serialization and propagation latency — and reports what was actually
// delivered, with end-to-end latency, under the topology's routing
// (mesh Direct/VLB, or leaf-spine ECMP). The forwarding budget, wire
// and port serialization are arithmetic recurrences (end = max(now,
// free) + batch time, the batch time a per-run constant), not
// dedicated processes: a node is one generator task (a step function
// the event loop calls inline, no goroutine) regardless of its degree,
// and a forwarding operation costs the one engine event that delivers
// its batch, which is what lets a 128-leaf fabric run inside the bench
// budget.
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
	// horizon; InFlight, batches the horizon leaves waiting for or in a
	// forwarding budget, or on a link. Every generated batch is in
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
	// InboxPeak is the most batches waiting for one node's forwarding
	// budget at any arrival (the arriving batch included).
	InboxPeak int
	// SlotUtil is each egress slot's serializer utilisation in permille
	// (batches × txTime / horizon), node by node and slot by slot. A
	// slot whose backlog runs past the horizon can exceed 1000.
	SlotUtil []int64
}

// batch is the unit of simulated traffic: a burst of packets of one
// flow, batchBytes long. Batches travel between nodes by value through
// sim.Links, so ownership hands off at scheduler-visible boundaries.
type batch struct {
	src, dst int32
	hops     uint32
	hash     uint32 // RSS flow hash: VLB intermediate / ECMP path choice
	born     sim.Time
}

// fabricNode is one fabric box: a generator task emitting external
// ingress, and arrive, which its links and its generator call with
// each batch. The forwarding budget, link and external-port
// serialization are arithmetic FIFO recurrences (fwdFree, txFree,
// extFree) — max(now, free) + bits/rate is exactly a single-server
// FIFO queue's completion time. Batches have one size, so every
// bits/rate is a constant newFabric computes once (fwdTime, extTime,
// txTime). Every field belongs to the node's own partition: its task
// and its links' deliveries write it, ordered by the partition's (at,
// seq), and only batches on its links leave it. Everything merges in
// node order after the run.
type fabricNode struct {
	id   int
	part *sim.Partition
	env  *sim.Env
	out  []*sim.Link[batch]

	// read-only once the tasks are spawned
	topo    Topology
	horizon sim.Time
	fwdTime sim.Duration   // one batch through the forwarding budget
	extTime sim.Duration   // one batch through the external port (external nodes)
	txTime  []sim.Duration // one batch on the wire, per slot

	// generator-owned: what its steps keep between wake-ups. gen holds
	// the destinations this node offers traffic to; genArmed says the
	// armed wake-up emits to its front (false before the first).
	gen        generator
	genArmed   bool
	rng        uint64
	zipf       []float64 // nil: every batch is its own flow
	flowLeft   []int
	flowHash   []uint32 // per-destination hash of the persistent key material
	genBatches uint64

	// The fault timeline: the node's link and node events in plan
	// order (sorted by At), the next one to apply, and the liveness
	// they have set so far. Budget starts and ends only move forward,
	// so applying every event up to the instant being read is the
	// state an At callback per event would have left.
	faults    []faults.Event
	nextFault int
	alive     []bool // per-slot link carrier, read when a budget ends
	down      int    // slots of alive that are false
	up        bool   // node liveness, read when a budget starts

	fwdFree sim.Time           // forwarding-budget free time
	started sim.Ring[sim.Time] // budget starts not yet reached at the latest arrival
	txFree  []sim.Time         // per-slot wire-free time (FIFO serialization)
	extFree sim.Time           // external port free time

	inboxPeak int // most batches waiting for the budget at an arrival

	forwards      uint64
	delivered     uint64
	deliveredBits uint64
	hopSum        uint64
	latSum        sim.Duration
	latMax        sim.Duration
	late          uint64
	routeDrops    uint64
	nodeDrops     uint64
	inFlight      uint64 // batches whose budget starts or ends past the horizon
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

// genRing is one run of a generator's slots that share an interval,
// slots[lo:hi], whose earliest slot is head.
type genRing struct{ lo, hi, head int }

// generator holds a node's destinations in emission order without
// sifting them. Every first emission is drawn in [0, interval), so
// destinations of one interval emit in a fixed cyclic order: sorted by
// (next, dst), the first one's next emission lands past every other's.
// slots is sorted by (interval, next, dst), each run of equal intervals
// is a ring rotating at its head, and rings is a min-heap over the
// heads' (next, dst). A uniform row is one ring.
type generator struct {
	slots []genSlot
	rings []genRing
}

// newGenerator orders slots, at most one per destination, into rings.
func newGenerator(slots []genSlot) generator {
	// An insertion sort, its order compared inline: a row is short. On
	// fabric-ls64's 64 rows of 64 slots it takes 105 µs against 229 µs
	// for slices.SortFunc on (interval, next, dst), whose comparator is
	// an indirect call per comparison (same order out; -cpu 1, median of
	// 5, on a 2-CPU Xeon host).
	for i := 1; i < len(slots); i++ {
		s := slots[i]
		j := i
		for ; j > 0 && (s.interval < slots[j-1].interval || s.interval == slots[j-1].interval && s.before(&slots[j-1])); j-- {
			slots[j] = slots[j-1]
		}
		slots[j] = s
	}
	g := generator{slots: slots}
	for lo, hi := 0, 1; lo < len(slots); lo, hi = hi, hi+1 {
		for hi < len(slots) && slots[hi].interval == slots[lo].interval {
			hi++
		}
		g.rings = append(g.rings, genRing{lo, hi, lo})
	}
	for i := len(g.rings)/2 - 1; i >= 0; i-- {
		g.down(i)
	}
	return g
}

// front is the earliest pending destination, ties to the lower index.
func (g *generator) front() *genSlot { return &g.slots[g.rings[0].head] }

// advance moves the front destination one interval later: its ring
// rotates, and the ring sifts down to where its new head belongs.
func (g *generator) advance() {
	r := &g.rings[0]
	s := &g.slots[r.head]
	s.next += sim.Time(s.interval)
	if r.head++; r.head == r.hi {
		r.head = r.lo
	}
	g.down(0)
}

// down sifts ring i down the heap.
func (g *generator) down(i int) {
	h := g.rings
	r := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && g.slots[h[c+1].head].before(&g.slots[h[c].head]) {
			c++
		}
		if !g.slots[h[c].head].before(&g.slots[r.head]) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = r
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

// fabric is one built fabric world: validated, wired and with its fault
// timelines, with no process spawned yet. RunFabric spawns the node
// tasks on it; the tests spawn the goroutine oracle on the same nodes
// instead.
type fabric struct {
	cfg   FabricConfig // defaults applied
	world *sim.World
	nodes []*fabricNode
	zipf  []float64
}

// genSlots converts node i's row of a checked traffic matrix into its
// generator's slots, one per destination with traffic, converting each
// rate once: every positive rate must be a batchTime (the generator
// divides by that interval and adds it to emission times). The first
// emissions are initGenerator's to draw.
func genSlots(m Matrix, i int, max sim.Duration) ([]genSlot, error) {
	n := 0
	for _, rate := range m[i] {
		if rate > 0 {
			n++
		}
	}
	slots := make([]genSlot, 0, n)
	for j, rate := range m[i] {
		if rate > 0 {
			interval, err := batchTime(rate, max)
			if err != nil {
				return nil, fmt.Errorf("fabric: matrix[%d][%d] batch interval: %w", i, j, err)
			}
			slots = append(slots, genSlot{interval: interval, dst: j})
		}
	}
	return slots, nil
}

// newFabric validates cfg and builds the world: one partition and node
// per topology node with its per-run batch times, the links, and the
// fault timelines. A link into node nd delivers to recv(nd), which
// RunFabric makes nd.arrive.
func newFabric(cfg FabricConfig, recv func(nd *fabricNode) func(batch)) (*fabric, error) {
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
	if err := cfg.Matrix.check(ext); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
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
			env:     part.Env(),
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
			if nd.gen.slots, err = genSlots(cfg.Matrix, i, maxTime); err != nil {
				return fail(err)
			}
		}
	}
	in := make([]func(batch), n)
	for i, nd := range f.nodes {
		in[i] = recv(nd)
	}
	for _, tl := range topo.Links() {
		nd := f.nodes[tl.From]
		tx, err := batchTime(tl.Gbps, maxTime)
		if err != nil {
			return fail(fmt.Errorf("fabric: node %d slot %d link: %w", tl.From, len(nd.out), err))
		}
		nd.out = append(nd.out, sim.NewLinkFunc(nd.part, f.nodes[tl.To].part,
			cfg.LinkLatency, in[tl.To]))
		nd.txTime = append(nd.txTime, tx)
		nd.alive = append(nd.alive, true)
		nd.txFree = append(nd.txFree, 0)
	}
	if cfg.Faults != nil {
		if err := planFaults(cfg.Faults, f.nodes); err != nil {
			return fail(err)
		}
	}
	if cfg.Flows.ZipfS > 0 {
		f.zipf = zipfTable(cfg.Flows.ZipfS, maxFlowBatches)
	}
	return f, nil
}

// run advances the world to the horizon, closes it, and merges the
// result.
func (f *fabric) run() FabricResult {
	defer f.world.Close()
	f.world.Run(sim.Time(f.cfg.Horizon), f.cfg.Workers)
	return f.result()
}

// result merges the per-node counters of a finished run in node order:
// it is independent of how many workers advanced the partitions. It
// panics if the ledger does not balance: a batch that ends in no
// terminal state is a lost count.
func (f *fabric) result() FabricResult {
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
		res.InFlight += nd.inFlight
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
		m.InboxPeak = max(m.InboxPeak, nd.inboxPeak)
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

// startFabric builds the fabric world, its links delivering to arrive,
// and spawns every external node's generator task.
func startFabric(cfg FabricConfig) (*fabric, error) {
	f, err := newFabric(cfg, func(nd *fabricNode) func(batch) { return nd.arrive })
	if err != nil {
		return nil, err
	}
	for _, nd := range f.nodes[:f.cfg.Topo.Externals()] { // each task touches its own node only
		nd.initGenerator(f.cfg.Seed, f.zipf)
		nd.env.Task("gen", nd.generate)
	}
	return f, nil
}

// planFaults gives each affected node the plan's link and node events
// as its fault timeline, so a fault only ever touches partition-local
// state (a leaf never reads a spine's liveness — a dead node simply
// consumes and drops what reaches it). arrive reads up where a budget
// starts and alive where it ends, so a link that dies during a budget
// already fails that batch's routing.
func planFaults(plan *faults.Plan, nodes []*fabricNode) error {
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
		case faults.KindPCIeRetrain, faults.KindPCIeRestore, faults.KindRxDropBurst:
			// Single-box hardware kinds have no fabric-level meaning.
			continue
		default:
			return fmt.Errorf("fabric: unknown fault kind %s", ev.Kind)
		}
		nd.faults = append(nd.faults, ev)
	}
	return nil
}

// faultsAt applies every fault event of the node's timeline with At ≤ t,
// in plan order. Callers read forward in time only.
func (nd *fabricNode) faultsAt(t sim.Time) {
	for nd.nextFault < len(nd.faults) && sim.Time(nd.faults[nd.nextFault].At) <= t {
		ev := &nd.faults[nd.nextFault]
		nd.nextFault++
		switch ev.Kind {
		case faults.KindLinkDown, faults.KindLinkUp:
			if up := ev.Kind == faults.KindLinkUp; nd.alive[ev.Port] != up {
				nd.alive[ev.Port] = up
				if up {
					nd.down--
				} else {
					nd.down++
				}
			}
		case faults.KindGPUFail, faults.KindGPURepair:
			nd.up = ev.Kind == faults.KindGPURepair
		}
	}
}

// initGenerator builds the generator from the slots newFabric gave it
// (genSlots): each slot's first emission is phase-offset by the seed so
// nodes do not emit in lockstep.
func (nd *fabricNode) initGenerator(seed uint64, zipf []float64) {
	nd.rng = seed ^ (uint64(nd.id+1) * 0x9e3779b97f4a7c15)
	slots := nd.gen.slots
	for k := range slots {
		slots[k].next = sim.Time(splitmix64(&nd.rng) % uint64(slots[k].interval))
	}
	nd.gen = newGenerator(slots)
	nd.zipf = zipf
	if zipf != nil {
		nd.flowLeft = make([]int, nd.topo.Externals())
		nd.flowHash = make([]uint32, nd.topo.Externals())
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
		j := nd.gen.front().dst
		b := batch{src: int32(nd.id), dst: int32(j), born: p.Now()}
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
		nd.arrive(b) // own ingress enters the local forwarding budget
		nd.gen.advance()
	}
	if len(nd.gen.rings) == 0 || nd.gen.front().next > nd.horizon {
		return
	}
	nd.genArmed = true
	p.WakeAfter(sim.Duration(nd.gen.front().next - p.Now()))
}

// drawFlowHash draws a new flow's key material from the stream at rng
// and returns the fabric's flow hash of it: the paper's Toeplitz RSS,
// LUT-accelerated for the default key.
func drawFlowHash(rng *uint64) uint32 {
	flowSrc := uint32(splitmix64(rng))
	flowDst := uint32(splitmix64(rng))
	return nic.RSSHashIPv4Default(flowSrc, flowDst,
		uint16(flowSrc>>16), uint16(flowDst>>16))
}

// arrive accepts a batch into the node's forwarding budget, a FIFO
// single server: the batch starts at s = max(now, fwdFree) and leaves
// at e = s + fwdTime. A node down at s drops it without spending the
// budget; otherwise it is routed at e with the carrier as it is at e.
// A batch whose s or e passes the horizon stays in flight. What
// happens at s and e is decided here, at the arrival, and the batch
// leaves through Post at e, so the fabric spends one engine event per
// forwarding operation: the one that brought the batch in.
func (nd *fabricNode) arrive(b batch) {
	now := nd.env.Now()
	s := max(now, nd.fwdFree)
	for nd.started.Len() > 0 && nd.started.Front() <= now {
		nd.started.PopFront()
	}
	nd.started.PushBack(s)
	nd.inboxPeak = max(nd.inboxPeak, nd.started.Len())
	if s > nd.horizon {
		nd.inFlight++
		return
	}
	nd.faultsAt(s)
	if !nd.up {
		nd.nodeDrops++
		return
	}
	e := s + sim.Time(nd.fwdTime)
	nd.fwdFree = e
	if e > nd.horizon {
		nd.inFlight++
		return
	}
	nd.faultsAt(e)
	nd.route(e, b)
}

// route sends a batch that leaves its forwarding budget at e onward.
// Local deliveries pass through the external-port recurrence and count
// as delivered only if the port finishes them by the horizon, and as
// late otherwise. Transit batches pick an egress slot via the topology,
// serialize on the per-slot wire recurrence, and leave through Post,
// sent at e.
func (nd *fabricNode) route(e sim.Time, b batch) {
	nd.forwards++
	b.hops++
	if int(b.dst) == nd.id {
		end := max(e, nd.extFree) + sim.Time(nd.extTime)
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
	alive := nd.alive
	if nd.down == 0 {
		alive = nil // every slot up: the topology needs no scan
	}
	slot, ok := nd.topo.NextHop(nd.id, int(b.src), int(b.dst), b.hash, alive)
	if !ok {
		nd.routeDrops++
		return
	}
	dep := max(e, nd.txFree[slot]) + sim.Time(nd.txTime[slot])
	nd.txFree[slot] = dep
	nd.out[slot].Post(e, dep, b)
}
