package cluster

import (
	"fmt"
	"math"
	"reflect"
	"slices"
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

// TestGeneratorMatchesLinearScan steps the generator's rotating rings
// against the scan they replaced — earliest next emission, ties to the
// lower index — for 10^4 emissions per row and requires the same
// (destination, time) sequence. The rows: mixed intervals with gaps in
// the destination numbering (zero-rate destinations are never in the
// generator; the scan skips their -1) and two destinations of equal
// interval and phase, which tie at every emission; eight destinations
// that all tie always, one ring; one destination alone; 64
// destinations with SplitMix intervals of 1–50 ps, where ties are
// frequent and irregular and most rings hold several slots; and a
// matrix row with zero cells and three rates through initGenerator.
func TestGeneratorMatchesLinearScan(t *testing.T) {
	rows := map[string][]genSlot{
		"mixed": {
			{next: 0, interval: 7, dst: 0}, {next: 5, interval: 11, dst: 2},
			{next: 5, interval: 13, dst: 3}, {next: 999, interval: 1000, dst: 5},
			{next: 2, interval: 3, dst: 9}, {next: 2, interval: 3, dst: 6},
		},
		"all-tied": {},
		"single":   {{next: 4, interval: 9, dst: 3}},
		"wide":     {},
	}
	for j := 7; j >= 0; j-- { // descending: the sort has to reorder all of it
		rows["all-tied"] = append(rows["all-tied"], genSlot{next: 1, interval: 5, dst: j})
	}
	rng := uint64(16)
	for j := 0; j < 64; j++ {
		interval := sim.Duration(1 + splitmix64(&rng)%50)
		rows["wide"] = append(rows["wide"], genSlot{
			next: sim.Time(splitmix64(&rng) % uint64(interval)), interval: interval, dst: j})
	}
	gens := map[string]generator{}
	for name, slots := range rows {
		gens[name] = newGenerator(slices.Clone(slots))
	}
	nd := &fabricNode{id: 3}
	for j, rate := range []float64{0, 10, 10, 0, 2.5, 10, 40, 0, 2.5, 40} {
		if rate > 0 {
			nd.gen.slots = append(nd.gen.slots, genSlot{interval: gbpsTime(rate), dst: j})
		}
	}
	nd.initGenerator(7, nil)
	rows["matrix"], gens["matrix"] = slices.Clone(nd.gen.slots), nd.gen
	for name, g := range gens {
		next := make([]sim.Time, 64)
		interval := make([]sim.Duration, 64)
		for j := range next {
			next[j] = -1
		}
		for _, s := range rows[name] {
			next[s.dst], interval[s.dst] = s.next, s.interval
		}
		for n := 0; n < 10_000; n++ {
			j := -1
			for k := range next {
				if next[k] >= 0 && (j < 0 || next[k] < next[j]) {
					j = k
				}
			}
			if f := g.front(); f.dst != j || f.next != next[j] {
				t.Fatalf("%s: emission %d: the generator emits to %d at %d, the scan to %d at %d",
					name, n, f.dst, f.next, j, next[j])
			}
			next[j] += sim.Time(interval[j])
			g.advance()
		}
	}
}

// oracleNode is what the goroutine oracle keeps per node beside the
// fabricNode whose counters it writes: the forwarder's inbox queue, the
// liveness its fault callbacks toggle, whether a batch is in its budget
// and until when, and whether the forwarder waits in Get.
type oracleNode struct {
	nd    *fabricNode
	inbox *sim.Queue[batch]
	up    bool
	alive []bool
	busy  bool
	until sim.Time // the budget's end while busy
	idle  bool     // in Get: the forwarder takes the next batch on arrival
	peak  int      // most batches waiting at an arrival (put)
}

// put is a batch's arrival at the oracle's inbox, by link or from the
// generator. It counts the batches waiting for the budget, the arriving
// one included, as fabricNode.arrive does: every batch in the inbox but
// the head when the forwarder takes the head at this instant (it is
// idle, or its budget ends now) — a batch whose budget starts now is no
// longer waiting. The count does not depend on whether the forwarder's
// wake-up at this instant runs before or after the arrival, which the
// inbox depth alone would.
func (o *oracleNode) put(b batch) {
	o.inbox.TryPut(b)
	n := o.inbox.Len()
	if n > 1 && (o.idle || o.busy && o.until == o.nd.env.Now()) {
		n--
	}
	o.peak = max(o.peak, n)
}

// runFabricOracle is RunFabric with the fabric as it ran before the
// budget became a recurrence: links deliver into an inbox queue per
// node, a goroutine generator and a goroutine forwarder run on each
// node, and every fault event is an At callback on its node. Same
// build, same world and the same merge, so any difference in the result
// is a difference between the two forms.
func runFabricOracle(cfg FabricConfig) (FabricResult, FabricMetrics, error) {
	var on []*oracleNode
	f, err := newFabric(cfg, func(nd *fabricNode) func(batch) {
		o := &oracleNode{nd: nd, inbox: sim.NewQueue[batch](nd.env, 0), up: true}
		on = append(on, o)
		return o.put
	})
	if err != nil {
		return FabricResult{}, FabricMetrics{}, err
	}
	defer f.world.Close()
	ext := f.cfg.Topo.Externals()
	for i, o := range on {
		o.alive = append([]bool(nil), o.nd.alive...)
		for _, ev := range o.nd.faults {
			o.nd.env.At(sim.Time(ev.At), func() {
				switch ev.Kind {
				case faults.KindLinkDown, faults.KindLinkUp:
					o.alive[ev.Port] = ev.Kind == faults.KindLinkUp
				case faults.KindGPUFail, faults.KindGPURepair:
					o.up = ev.Kind == faults.KindGPURepair
				}
			})
		}
		if i < ext {
			o.nd.env.Go("gen", func(p *sim.Proc) { o.generate(p, &f.cfg, f.zipf) })
		}
		o.nd.env.Go("fwd", func(p *sim.Proc) { o.forward(p, &f.cfg, f.cfg.Topo) })
	}
	f.world.Run(sim.Time(f.cfg.Horizon), f.cfg.Workers)
	for _, o := range on {
		o.nd.inFlight += uint64(o.inbox.Len())
		if o.busy {
			o.nd.inFlight++
		}
		o.nd.inboxPeak = o.peak
	}
	return f.result(), f.metrics(), nil
}

// generate is the generator as the goroutine process it was before the
// fabric ran on tasks, body verbatim but for the inbox: the
// differential oracle for fabricNode.generate (whose comment says what
// both do), and with its linear scan for the earliest destination, for
// the generator's rings.
func (o *oracleNode) generate(p *sim.Proc, cfg *FabricConfig, zipf []float64) {
	nd := o.nd
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
		b := batch{src: int32(nd.id), dst: int32(j), born: p.Now()}
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
		o.put(b) // unbounded: own ingress enters the local inbox
		next[j] += sim.Time(interval[j])
	}
}

// forward is the forwarder as a goroutine process, body verbatim from
// before the task rewrite but for the ledger's state (busy around the
// budget, late past the horizon) and what put reads to count the
// waiting batches (idle around Get, the budget's end): the oracle for
// fabricNode.arrive and .route, for the fault timeline, and — it calls
// gbpsTime with the topology's rates at every hop — for the per-run
// fwdTime/extTime/txTime constants.
func (o *oracleNode) forward(p *sim.Proc, cfg *FabricConfig, topo Topology) {
	nd := o.nd
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
		o.idle = true
		b := o.inbox.Get(p)
		o.idle = false
		if !o.up {
			nd.nodeDrops++
			continue
		}
		budget := gbpsTime(fwdGbps)
		o.busy, o.until = true, p.Now()+sim.Time(budget)
		p.Sleep(budget)
		o.busy = false
		nd.forwards++
		b.hops++
		if int(b.dst) == nd.id {
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
		slot, ok := topo.NextHop(nd.id, int(b.src), int(b.dst), b.hash, o.alive)
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
// the task rewrite and the budget recurrence: the production fabric (a
// generator task, arrive's recurrence, Post and the fault timeline) and
// the goroutine oracle must agree on every field of the result and on
// the inbox peak and slot utilisations, because on the window grid a
// batch reaches a node in the same order either way, and the
// recurrence is the FIFO budget's arithmetic.
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
						got, gotM, err := RunFabricMetrics(cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want, wantM, err := runFabricOracle(cfg)
						if err != nil {
							t.Fatalf("%s: oracle: %v", name, err)
						}
						if got != want {
							t.Errorf("%s: tasks diverged from the goroutine oracle:\n got %+v\nwant %+v", name, got, want)
						}
						if gotM.InboxPeak != wantM.InboxPeak || !reflect.DeepEqual(gotM.SlotUtil, wantM.SlotUtil) {
							t.Errorf("%s: metrics diverged from the goroutine oracle: inbox peak %d, want %d; slot util %v, want %v",
								name, gotM.InboxPeak, wantM.InboxPeak, gotM.SlotUtil, wantM.SlotUtil)
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
	// The bench's fabric-ls64: backlog at scale, 64 leaves on 8 spines.
	for seed := uint64(1); seed <= 2; seed++ {
		cfg := FabricConfig{
			Topo: &LeafSpine{
				Leaves: 64, Spines: 8, Uplinks: 2,
				EdgeGbps: 10, LeafGbps: 40, SpineGbps: 160, UplinkGbps: 10,
			},
			Matrix:      Uniform(64, 640),
			LinkLatency: 50 * sim.Microsecond,
			Horizon:     20 * sim.Millisecond,
			Seed:        seed,
			Workers:     1,
			Flows:       FlowModel{ZipfS: 1.1},
		}
		got, gotM, err := RunFabricMetrics(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, wantM, err := runFabricOracle(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || gotM.InboxPeak != wantM.InboxPeak || !reflect.DeepEqual(gotM.SlotUtil, wantM.SlotUtil) {
			t.Errorf("ls64/seed%d: tasks diverged from the goroutine oracle:\n got %+v, inbox peak %d\nwant %+v, inbox peak %d",
				seed, got, gotM.InboxPeak, want, wantM.InboxPeak)
		}
	}
	// Ties at the peak: node 1 of a two-node mesh forwards at its link's
	// rate, so the saturated link from node 0 delivers a batch every
	// budget time, and with node 1's own ingress queued behind them,
	// every arrival falls on the instant a waiting batch starts its
	// budget, the peak's among them. That batch no longer waits.
	for seed := uint64(1); seed <= 2; seed++ {
		cfg := FabricConfig{
			Topo: &FullMesh{Scheme: Direct, Cluster: Config{
				Nodes: 2, ExternalGbps: 40, NodeForwardingGbps: 10, InternalLinkGbps: 10}},
			Matrix:      Matrix{{0, 10}, {0, 1}},
			LinkLatency: 50 * sim.Microsecond,
			Horizon:     2 * sim.Millisecond,
			Seed:        seed,
			Workers:     1,
		}
		got, gotM, err := RunFabricMetrics(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, wantM, err := runFabricOracle(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || gotM.InboxPeak != wantM.InboxPeak {
			t.Errorf("tie/seed%d: tasks diverged from the goroutine oracle:\n got %+v, inbox peak %d\nwant %+v, inbox peak %d",
				seed, got, gotM.InboxPeak, want, wantM.InboxPeak)
		}
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
	want, _, err := runFabricOracle(build(faults.NewPlan().GPUOutage(spine, 1*sim.Millisecond, 1*sim.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	if outage != want {
		t.Errorf("tasks diverged from the goroutine oracle:\n got %+v\nwant %+v", outage, want)
	}
}

// TestFabricLinkDiesMidBudget: node 0 of a 2-node Direct mesh has one
// link, and it goes down for good half a forwarding budget after node 0
// takes its first batch. The forwarder reads the link's carrier when
// the budget ends, so that first batch is already unroutable, and so is
// every later one: nothing is delivered, late or left in flight.
func TestFabricLinkDiesMidBudget(t *testing.T) {
	cfg := fabCfg(2, Direct, Matrix{{0, 0.4}, {0, 0}}, 1)
	probe, err := newFabric(cfg, func(nd *fabricNode) func(batch) { return nd.arrive })
	if err != nil {
		t.Fatal(err)
	}
	nd := probe.nodes[0]
	nd.initGenerator(cfg.Seed, nil)
	// An idle forwarder takes a batch the instant the generator emits it.
	taken, fwd := nd.gen.front().next, nd.fwdTime
	probe.world.Close()

	cfg.Faults = faults.NewPlan().Add(faults.Event{
		At: sim.Duration(taken) + fwd/2, Kind: faults.KindLinkDown, Port: 0, Node: 0})
	res, err := RunFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches == 0 {
		t.Fatal("no batch offered")
	}
	if n := res.Delivered + res.Late + res.InFlight; n != 0 {
		t.Errorf("%d of %d batches delivered, late or in flight over a link that died mid-budget (%d route drops); want every one dropped at routing",
			n, res.Batches, res.RouteDrops)
	}
}
