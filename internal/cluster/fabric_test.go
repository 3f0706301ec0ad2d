package cluster

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"packetshader/internal/faults"
	"packetshader/internal/sim"
)

func fabCfg(n int, scheme Routing, m Matrix, workers int) FabricConfig {
	return FabricConfig{
		Topo:        &FullMesh{Cluster: ps(n), Scheme: scheme},
		Matrix:      m,
		LinkLatency: 50 * sim.Microsecond,
		Horizon:     5 * sim.Millisecond,
		Seed:        42,
		Workers:     workers,
	}
}

func TestFabricByteIdenticalAcrossWorkers(t *testing.T) {
	// The conservative-parallel world must produce the same FabricResult
	// no matter how many host goroutines advance the partitions.
	for _, scheme := range []Routing{Direct, VLB} {
		base, err := RunFabric(fabCfg(8, scheme, Uniform(8, 160), 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 8} {
			got, err := RunFabric(fabCfg(8, scheme, Uniform(8, 160), w))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Errorf("scheme %v: workers=%d diverged:\n got %+v\nwant %+v",
					scheme, w, got, base)
			}
		}
	}
}

func TestFabricDeliversAdmissibleLoad(t *testing.T) {
	// At a load the analytic model calls admissible, the fabric should
	// deliver nearly everything offered — the shortfall is only the
	// batches still in flight when the horizon cuts the run.
	for _, scheme := range []Routing{Direct, VLB} {
		n := 8
		m := Uniform(n, float64(n)*10) // 10 Gbps/node: well inside capacity
		ev, err := Evaluate(ps(n), scheme, m)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Admissible < 1 {
			t.Fatalf("scheme %v: test load inadmissible (%.2f)", scheme, ev.Admissible)
		}
		res, err := RunFabric(fabCfg(n, scheme, m, 4))
		if err != nil {
			t.Fatal(err)
		}
		if res.DeliveredGbps < 0.9*res.OfferedGbps {
			t.Errorf("scheme %v: delivered %.1f of %.1f Gbps offered",
				scheme, res.DeliveredGbps, res.OfferedGbps)
		}
		if res.MeanLatency < sim.Duration(50*sim.Microsecond) {
			t.Errorf("scheme %v: mean latency %v below one link propagation",
				scheme, res.MeanLatency)
		}
	}
}

func TestFabricOverloadCapsAtCapacity(t *testing.T) {
	// Offered load far beyond the forwarding budget: the fabric delivers
	// no more than the analytic bottleneck admits, instead of inventing
	// throughput.
	n := 8
	m := Uniform(n, float64(n)*40) // 40 Gbps/node external: saturating
	res, err := RunFabric(fabCfg(n, VLB, m, 2))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(ps(n), VLB, m)
	if err != nil {
		t.Fatal(err)
	}
	admissible := ev.Admissible * res.OfferedGbps
	if res.DeliveredGbps > admissible*1.05 {
		t.Errorf("delivered %.1f Gbps exceeds analytic admissible %.1f",
			res.DeliveredGbps, admissible)
	}
	if res.DeliveredGbps <= 0 {
		t.Error("overloaded fabric delivered nothing")
	}
}

func TestFabricHopsMatchScheme(t *testing.T) {
	// Direct routing takes exactly 2 forwarding operations per batch
	// (ingress node + egress node); VLB adds an intermediate for most
	// flows, so its mean sits strictly between 2 and 3. A permutation
	// matrix keeps the diagonal empty so no 1-hop local traffic dilutes
	// the means.
	n := 8
	m := Permutation(n, 10)
	direct, err := RunFabric(fabCfg(n, Direct, m, 1))
	if err != nil {
		t.Fatal(err)
	}
	if direct.MeanHops != 2 {
		t.Errorf("direct mean hops = %v, want exactly 2", direct.MeanHops)
	}
	vlb, err := RunFabric(fabCfg(n, VLB, m, 1))
	if err != nil {
		t.Fatal(err)
	}
	if vlb.MeanHops <= 2.1 || vlb.MeanHops >= 3 {
		t.Errorf("vlb mean hops = %v, want in (2.1, 3)", vlb.MeanHops)
	}
	if vlb.MeanLatency <= direct.MeanLatency {
		t.Errorf("vlb latency %v not above direct %v (extra hop is free?)",
			vlb.MeanLatency, direct.MeanLatency)
	}
}

func TestFabricSeedChangesVLBSpread(t *testing.T) {
	// Different seeds pick different flow keys, hence different VLB
	// intermediates; results must differ (and each be self-deterministic,
	// which TestFabricByteIdenticalAcrossWorkers already proves).
	cfg := fabCfg(8, VLB, Uniform(8, 160), 1)
	a, err := RunFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 43
	b, err := RunFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("different seeds produced identical fabric results")
	}
}

func TestFabricValidation(t *testing.T) {
	good := fabCfg(4, Direct, Uniform(4, 40), 1)
	if _, err := RunFabric(good); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*FabricConfig)
	}{
		{"no topology", func(c *FabricConfig) { c.Topo = nil }},
		{"bad cluster", func(c *FabricConfig) { c.Topo.(*FullMesh).Cluster.Nodes = 1 }},
		{"directvlb unmodeled", func(c *FabricConfig) { c.Topo.(*FullMesh).Scheme = DirectVLB }},
		{"matrix size", func(c *FabricConfig) { c.Matrix = Uniform(5, 40) }},
		{"zero link latency", func(c *FabricConfig) { c.LinkLatency = 0 }},
		{"zero horizon", func(c *FabricConfig) { c.Horizon = 0 }},
		// Hostile matrices: each of these used to panic inside a sim
		// goroutine (index out of range, integer divide by zero), where
		// no caller can recover.
		{"ragged short row", func(c *FabricConfig) { c.Matrix[2] = c.Matrix[2][:3] }},
		{"ragged long row", func(c *FabricConfig) { c.Matrix[0] = append(c.Matrix[0], 1) }},
		{"nil row", func(c *FabricConfig) { c.Matrix[3] = nil }},
		{"zero-interval rate", func(c *FabricConfig) { c.Matrix[1][2] = 1e12 }},
		{"+Inf rate", func(c *FabricConfig) { c.Matrix[1][2] = math.Inf(1) }},
		{"-Inf rate", func(c *FabricConfig) { c.Matrix[1][2] = math.Inf(-1) }},
		{"NaN rate", func(c *FabricConfig) { c.Matrix[1][2] = math.NaN() }},
		{"negative rate", func(c *FabricConfig) { c.Matrix[1][2] = -1 }},
		{"interval overflows the clock", func(c *FabricConfig) { c.Matrix[1][2] = 1e-300 }},
	}
	for _, tc := range cases {
		cfg := fabCfg(4, Direct, Uniform(4, 40), 1)
		tc.mut(&cfg)
		if _, err := RunFabric(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Hostile topology rates. The topologies' Validate rejects NaN; +Inf
	// and the extremes are positive, so they pass it, and each used to
	// reach gbpsTime inside a task; newFabric now checks every batch
	// time it derives from them.
	mesh := func() FabricConfig { return fabCfg(4, Direct, Uniform(4, 40), 1) }
	leafSpine := func() FabricConfig { return diffTopos()[1] }
	if _, err := RunFabric(leafSpine()); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		base func() FabricConfig
		set  func(*FabricConfig, float64)
	}{
		{"ExternalGbps", mesh, func(c *FabricConfig, v float64) { c.Topo.(*FullMesh).Cluster.ExternalGbps = v }},
		{"NodeForwardingGbps", mesh, func(c *FabricConfig, v float64) { c.Topo.(*FullMesh).Cluster.NodeForwardingGbps = v }},
		{"InternalLinkGbps", mesh, func(c *FabricConfig, v float64) { c.Topo.(*FullMesh).Cluster.InternalLinkGbps = v }},
		{"EdgeGbps", leafSpine, func(c *FabricConfig, v float64) { c.Topo.(*LeafSpine).EdgeGbps = v }},
		{"LeafGbps", leafSpine, func(c *FabricConfig, v float64) { c.Topo.(*LeafSpine).LeafGbps = v }},
		{"SpineGbps", leafSpine, func(c *FabricConfig, v float64) { c.Topo.(*LeafSpine).SpineGbps = v }},
		{"UplinkGbps", leafSpine, func(c *FabricConfig, v float64) { c.Topo.(*LeafSpine).UplinkGbps = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), 1e300, 1e-300} {
			cfg := f.base()
			f.set(&cfg, v)
			if _, err := RunFabric(cfg); err == nil {
				t.Errorf("%s = %v: accepted", f.name, v)
			} else if !strings.Contains(err.Error(), "node ") {
				t.Errorf("%s = %v: error %q does not name the node", f.name, v, err)
			}
		}
	}
	// The fastest rate whose batch still takes a picosecond is legal.
	cfg := fabCfg(4, Direct, Uniform(4, 40), 1)
	cfg.Horizon = 100 * sim.Picosecond
	cfg.Matrix[1][2] = 131072000 // 16 KiB at 131,072,000 Gbps = 1 ps
	if _, err := RunFabric(cfg); err != nil {
		t.Errorf("1 ps batch interval rejected: %v", err)
	}
}

func TestFabricOfferedMatchesMatrix(t *testing.T) {
	res, err := RunFabric(fabCfg(4, Direct, Uniform(4, 80), 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.OfferedGbps-80) > 1e-9 {
		t.Errorf("offered = %v, want 80", res.OfferedGbps)
	}
	// Generated bits over the horizon approximate the offered rate.
	genGbps := float64(res.Batches) * batchBits / (fabCfg(4, Direct, nil, 1).Horizon.Seconds() * 1e9)
	if genGbps < 72 || genGbps > 88 {
		t.Errorf("generated %.1f Gbps for 80 offered", genGbps)
	}
}

// TestGenHeapMatchesLinearScan steps the generator's destination heap
// against the scan it replaced — earliest next emission, ties to the
// lower index — for 10^4 emissions per row and requires the same
// (destination, time) sequence. The rows: mixed intervals with gaps in
// the destination numbering (zero-rate destinations are never in the
// heap; the scan skips their -1) and two destinations of equal interval
// and phase, which tie at every emission; eight destinations that all
// tie always; one destination alone; and 64 destinations with SplitMix
// intervals of 1–50 ps, where ties are frequent and irregular.
func TestGenHeapMatchesLinearScan(t *testing.T) {
	rows := map[string]genHeap{
		"mixed": {
			{next: 0, interval: 7, dst: 0}, {next: 5, interval: 11, dst: 2},
			{next: 5, interval: 13, dst: 3}, {next: 999, interval: 1000, dst: 5},
			{next: 2, interval: 3, dst: 9}, {next: 2, interval: 3, dst: 6},
		},
		"all-tied": {},
		"single":   {{next: 4, interval: 9, dst: 3}},
		"wide":     {},
	}
	for j := 7; j >= 0; j-- { // descending: init has to reorder all of it
		rows["all-tied"] = append(rows["all-tied"], genSlot{next: 1, interval: 5, dst: j})
	}
	rng := uint64(16)
	for j := 0; j < 64; j++ {
		interval := sim.Duration(1 + splitmix64(&rng)%50)
		rows["wide"] = append(rows["wide"], genSlot{
			next: sim.Time(splitmix64(&rng) % uint64(interval)), interval: interval, dst: j})
	}
	for name, h := range rows {
		next := make([]sim.Time, 64)
		interval := make([]sim.Duration, 64)
		for j := range next {
			next[j] = -1
		}
		for _, g := range h {
			next[g.dst], interval[g.dst] = g.next, g.interval
		}
		h.init()
		for n := 0; n < 10_000; n++ {
			j := -1
			for k := range next {
				if next[k] >= 0 && (j < 0 || next[k] < next[j]) {
					j = k
				}
			}
			if h[0].dst != j || h[0].next != next[j] {
				t.Fatalf("%s: emission %d: heap emits to %d at %d, scan to %d at %d",
					name, n, h[0].dst, h[0].next, j, next[j])
			}
			next[j] += sim.Time(interval[j])
			h.down(0, genSlot{next: h[0].next + sim.Time(h[0].interval), interval: h[0].interval, dst: j})
		}
	}
}

// runFabricOracle is RunFabric with the goroutine generator and
// forwarder spawned on the nodes instead of the tasks: same build, same
// run and merge, so any difference in the result is a difference
// between the two process forms.
func runFabricOracle(cfg FabricConfig) (FabricResult, error) {
	f, err := newFabric(cfg)
	if err != nil {
		return FabricResult{}, err
	}
	ext := f.cfg.Topo.Externals()
	for i, nd := range f.nodes {
		env := nd.part.Env()
		if i < ext {
			env.Go("gen", func(p *sim.Proc) { nd.oracleGenerate(p, &f.cfg, f.zipf) })
		}
		env.Go("fwd", func(p *sim.Proc) { nd.oracleForward(p, &f.cfg, f.cfg.Topo) })
	}
	return f.run(), nil
}

// oracleGenerate is the generator as the goroutine process it was before
// the fabric ran on tasks, body verbatim: the differential oracle for
// fabricNode.generate (whose comment says what both do), and with its
// linear scan for the earliest destination, for genHeap.
func (nd *fabricNode) oracleGenerate(p *sim.Proc, cfg *FabricConfig, zipf []float64) {
	ext := len(cfg.Matrix)
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
		interval[j] = gbpsTime(rate)
		next[j] = sim.Time(splitmix64(&rng) % uint64(interval[j]))
		active++
	}
	if active == 0 {
		return
	}
	var flowLeft []int
	var flowHash []uint32 // per-destination hash of the persistent key material
	if zipf != nil {
		flowLeft = make([]int, ext)
		flowHash = make([]uint32, ext)
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
		b := batch{src: nd.id, dst: j, born: p.Now()}
		if zipf == nil {
			b.hash = drawFlowHash(&rng)
		} else {
			if flowLeft[j] == 0 {
				flowLeft[j] = zipfDraw(zipf, &rng)
				flowHash[j] = drawFlowHash(&rng)
			}
			flowLeft[j]--
			b.hash = flowHash[j]
		}
		nd.genBatches++
		nd.inbox.TryPut(b) // unbounded: own ingress enters the local inbox
		next[j] += sim.Time(interval[j])
	}
}

// oracleForward is the forwarder as a goroutine process, body verbatim
// from before the task rewrite but for the ledger's state (cur and busy
// around the budget, late past the horizon), which it keeps as the task
// does: the oracle for fabricNode.forward and .route, and — it calls
// gbpsTime with the topology's rates at every hop — for the per-run
// fwdTime/extTime/txTime constants.
func (nd *fabricNode) oracleForward(p *sim.Proc, cfg *FabricConfig, topo Topology) {
	fwdGbps := topo.ForwardGbps(nd.id)
	extGbps := topo.ExternalGbps(nd.id)
	horizon := sim.Time(cfg.Horizon)
	var gbps []float64 // per-slot link rate
	for _, tl := range topo.Links() {
		if tl.From == nd.id {
			gbps = append(gbps, tl.Gbps)
		}
	}
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
		nd.cur, nd.busy = b, true
		p.Sleep(gbpsTime(fwdGbps))
		nd.busy = false
		nd.forwards++
		b.hops++
		if b.dst == nd.id {
			end := p.Now()
			if nd.extFree > end {
				end = nd.extFree
			}
			end += sim.Time(gbpsTime(extGbps))
			nd.extFree = end
			if end <= horizon {
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
			continue
		}
		slot, ok := topo.NextHop(nd.id, b.src, b.dst, b.hash, nd.alive)
		if !ok {
			nd.routeDrops++
			continue
		}
		dep := p.Now()
		if nd.txFree[slot] > dep {
			dep = nd.txFree[slot]
		}
		dep += sim.Time(gbpsTime(gbps[slot]))
		nd.txFree[slot] = dep
		nd.out[slot].SendAt(p, dep, b)
	}
}

// diffTopos are the two fabrics of the differential test, each loaded
// past a bottleneck so inboxes hold backlog: an 8-node VLB mesh, and a
// 6×2 leaf–spine (two uplink slots per leaf) whose spines forward less
// than the leaves offer.
func diffTopos() []FabricConfig {
	return []FabricConfig{
		fabCfg(8, VLB, Uniform(8, 360), 1),
		{
			Topo: &LeafSpine{
				Leaves: 6, Spines: 2, Uplinks: 1,
				EdgeGbps: 40, LeafGbps: 40, SpineGbps: 30, UplinkGbps: 10,
			},
			Matrix:      Uniform(6, 120),
			LinkLatency: 50 * sim.Microsecond,
			Horizon:     4 * sim.Millisecond,
		},
	}
}

// diffFaults flaps egress slots 0 and 1 of node 0 with an overlap (in
// the leaf–spine that is every uplink of leaf 0, so its transit traffic
// is unroutable meanwhile) and fails node 1 — a mesh transit node, a
// leaf — and the last node — a spine in the leaf–spine — mid-run,
// repairing all of them before the horizon.
func diffFaults(nodes int) *faults.Plan {
	return faults.NewPlan().
		LinkFlap(0, 700*sim.Microsecond, 900*sim.Microsecond).
		LinkFlap(1, 900*sim.Microsecond, 500*sim.Microsecond).
		GPUOutage(1, 1200*sim.Microsecond, 800*sim.Microsecond).
		GPUOutage(nodes-1, 1500*sim.Microsecond, 1*sim.Millisecond)
}

// TestFabricTasksMatchGoroutineOracle is the differential test behind
// the task rewrite: the production fabric (tasks) and the goroutine
// oracle must agree on every field of the result, because a task issues
// the same Env.schedule calls as the goroutine process it replaced.
func TestFabricTasksMatchGoroutineOracle(t *testing.T) {
	var late uint64
	for ti, base := range diffTopos() {
		for seed := uint64(1); seed <= 4; seed++ {
			for _, zipfS := range []float64{0, 1.1} {
				for _, faulty := range []bool{false, true} {
					for _, workers := range []int{1, 3} {
						cfg := base
						cfg.Seed, cfg.Workers = seed, workers
						cfg.Flows = FlowModel{ZipfS: zipfS}
						if faulty {
							cfg.Faults = diffFaults(cfg.Topo.Nodes())
						}
						name := fmt.Sprintf("topo%d/seed%d/zipf%v/faults%v/p%d", ti, seed, zipfS, faulty, workers)
						got, err := RunFabric(cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want, err := runFabricOracle(cfg)
						if err != nil {
							t.Fatalf("%s: oracle: %v", name, err)
						}
						if got != want {
							t.Errorf("%s: tasks diverged from the goroutine oracle:\n got %+v\nwant %+v", name, got, want)
						}
						if got.Delivered == 0 || got.InFlight == 0 || faulty && (got.NodeDrops == 0 || got.RouteDrops == 0) {
							t.Errorf("%s: case does not exercise its paths: %+v", name, got)
						}
						late += got.Late
					}
				}
			}
		}
	}
	if late == 0 {
		t.Error("no case finishes a delivery past the horizon: the late path is untested")
	}
}

// TestFabricNodeFailsMidRunAndRecovers covers what the whole-run
// outages of topology_test.go skip: the only spine dies at 1 ms with
// batches queued in its inbox (it forwards half of what is offered),
// drops them and everything that arrives while it is down, and is
// repaired at 2 ms — after which it delivers again, so the run ends
// with more delivered and less dropped than one where it stays dead.
func TestFabricNodeFailsMidRunAndRecovers(t *testing.T) {
	build := func(plan *faults.Plan) FabricConfig {
		return FabricConfig{
			Topo: &LeafSpine{
				Leaves: 4, Spines: 1, Uplinks: 2,
				EdgeGbps: 40, LeafGbps: 40, SpineGbps: 20, UplinkGbps: 10,
			},
			Matrix:      Permutation(4, 10),
			LinkLatency: 50 * sim.Microsecond,
			Horizon:     5 * sim.Millisecond,
			Seed:        7,
			Workers:     2,
			Faults:      plan,
		}
	}
	const spine = 4
	run := func(plan *faults.Plan) FabricResult {
		res, err := RunFabric(build(plan))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	healthy := run(nil)
	outage := run(faults.NewPlan().GPUOutage(spine, 1*sim.Millisecond, 1*sim.Millisecond))
	dead := run(faults.NewPlan().Add(faults.Event{At: 1 * sim.Millisecond, Kind: faults.KindGPUFail, Node: spine}))

	if healthy.NodeDrops != 0 {
		t.Fatalf("healthy run dropped %d batches at a node", healthy.NodeDrops)
	}
	// The spine's backlog at 1 ms is dropped in one step, so the outage
	// loses more than the 1 ms of arrivals alone (≈ 1 ms × 40 Gbps).
	const perMs = 40e9 * 1e-3 / (16 << 10 * 8) // batches
	if float64(outage.NodeDrops) <= perMs {
		t.Errorf("NodeDrops = %d, want more than one millisecond of arrivals (%.0f): the queued backlog must drop too", outage.NodeDrops, perMs)
	}
	if !(dead.Delivered < outage.Delivered && outage.Delivered < healthy.Delivered) {
		t.Errorf("delivered: dead %d, outage %d, healthy %d — want strictly increasing (the repaired spine delivers again)",
			dead.Delivered, outage.Delivered, healthy.Delivered)
	}
	if outage.NodeDrops >= dead.NodeDrops {
		t.Errorf("NodeDrops: outage %d, dead %d — the repaired spine must stop dropping", outage.NodeDrops, dead.NodeDrops)
	}
	want, err := runFabricOracle(build(faults.NewPlan().GPUOutage(spine, 1*sim.Millisecond, 1*sim.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	if outage != want {
		t.Errorf("tasks diverged from the goroutine oracle:\n got %+v\nwant %+v", outage, want)
	}
}
