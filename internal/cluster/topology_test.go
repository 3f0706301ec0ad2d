package cluster

import (
	"reflect"
	"testing"

	"packetshader/internal/faults"
	"packetshader/internal/sim"
)

// lsCfg is an 8-leaf-class leaf–spine fabric config with per-leaf uplink
// capacity Spines×Uplinks×10 Gbps.
func lsCfg(leaves, spines, uplinks int, m Matrix, workers int) FabricConfig {
	return FabricConfig{
		Topo: &LeafSpine{
			Leaves: leaves, Spines: spines, Uplinks: uplinks,
			EdgeGbps: 40, LeafGbps: 40, SpineGbps: 160, UplinkGbps: 10,
		},
		Matrix:      m,
		LinkLatency: 50 * sim.Microsecond,
		Horizon:     5 * sim.Millisecond,
		Seed:        42,
		Workers:     workers,
	}
}

// TestLeafSpineByteIdenticalAcrossWorkers extends the -p1==-pN
// determinism guarantee to the two-tier fabric, with Zipf flows and a
// fault plan in play — the full feature set of this topology.
func TestLeafSpineByteIdenticalAcrossWorkers(t *testing.T) {
	build := func(workers int) FabricConfig {
		cfg := lsCfg(8, 4, 2, Uniform(8, 80), workers)
		cfg.Flows = FlowModel{ZipfS: 1.2}
		cfg.Faults = faults.NewPlan().
			LinkFlap(0, 1*sim.Millisecond, 1*sim.Millisecond). // leaf 0, uplink slot 0
			GPUOutage(8, 2*sim.Millisecond, 1*sim.Millisecond) // spine 0 (node Leaves+0)
		return cfg
	}
	base, err := RunFabric(build(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		got, err := RunFabric(build(w))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d diverged:\n got %+v\nwant %+v", w, got, base)
		}
	}
}

// TestLeafSpineDeliversAdmissibleLoad: a uniform load well inside every
// budget (10 Gbps/leaf against 80 Gbps of uplinks) arrives nearly
// entirely, and a permutation batch crosses exactly three forwarders:
// ingress leaf, spine, egress leaf.
func TestLeafSpineDeliversAdmissibleLoad(t *testing.T) {
	res, err := RunFabric(lsCfg(8, 4, 2, Uniform(8, 80), 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredGbps < 0.9*res.OfferedGbps {
		t.Errorf("delivered %.1f of %.1f Gbps offered", res.DeliveredGbps, res.OfferedGbps)
	}
	if res.RouteDrops != 0 || res.NodeDrops != 0 {
		t.Errorf("healthy fabric dropped: route=%d node=%d", res.RouteDrops, res.NodeDrops)
	}
	perm, err := RunFabric(lsCfg(8, 4, 2, Permutation(8, 10), 4))
	if err != nil {
		t.Fatal(err)
	}
	if perm.MeanHops != 3 {
		t.Errorf("leaf-spine mean hops = %v, want exactly 3 (leaf→spine→leaf)", perm.MeanHops)
	}
	if perm.MeanLatency < sim.Duration(100*sim.Microsecond) {
		t.Errorf("mean latency %v below two link propagations", perm.MeanLatency)
	}
}

// TestLeafSpineECMPScalesWithSpines: under a permutation load that
// saturates one spine's worth of uplinks, adding spines must raise
// delivered throughput — the observable effect of ECMP actually
// spreading flows across the tier rather than pinning them to one path.
func TestLeafSpineECMPScalesWithSpines(t *testing.T) {
	run := func(spines int) float64 {
		cfg := lsCfg(8, spines, 1, Permutation(8, 30), 2)
		// Oversized forwarding budgets: the uplinks must be the only
		// bottleneck for the comparison to isolate ECMP.
		cfg.Topo.(*LeafSpine).LeafGbps = 160
		res, err := RunFabric(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.DeliveredGbps
	}
	one, four := run(1), run(4)
	if one <= 0 {
		t.Fatal("single-spine fabric delivered nothing")
	}
	if four < 2*one {
		t.Errorf("4 spines delivered %.1f Gbps vs %.1f with 1 — ECMP is not spreading", four, one)
	}
}

// TestLeafSpineUplinkFaultReroutes: with one of leaf 0's two uplinks
// down for the whole run, ECMP remaps its hash buckets onto the
// surviving link and nothing becomes unroutable.
func TestLeafSpineUplinkFaultReroutes(t *testing.T) {
	cfg := lsCfg(4, 2, 1, Uniform(4, 20), 2)
	cfg.Faults = faults.NewPlan().
		Add(faults.Event{At: 0, Kind: faults.KindLinkDown, Node: 0, Port: 0})
	res, err := RunFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RouteDrops != 0 {
		t.Errorf("RouteDrops = %d with a live alternate uplink", res.RouteDrops)
	}
	if res.DeliveredGbps < 0.9*res.OfferedGbps {
		t.Errorf("delivered %.1f of %.1f Gbps with one uplink down", res.DeliveredGbps, res.OfferedGbps)
	}
}

// TestLeafSpineAllUplinksDownBlackholes: with every uplink of leaf 0
// dead, its transit traffic is unroutable and counted in RouteDrops;
// traffic between the other leaves still flows.
func TestLeafSpineAllUplinksDownBlackholes(t *testing.T) {
	cfg := lsCfg(4, 2, 1, Uniform(4, 20), 2)
	plan := faults.NewPlan()
	for slot := 0; slot < 2; slot++ { // leaf 0's Spines×Uplinks slots
		plan.Add(faults.Event{At: 0, Kind: faults.KindLinkDown, Node: 0, Port: slot})
	}
	cfg.Faults = plan
	res, err := RunFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RouteDrops == 0 {
		t.Error("RouteDrops = 0 with every uplink of leaf 0 down")
	}
	if res.DeliveredGbps <= 0 || res.DeliveredGbps >= res.OfferedGbps {
		t.Errorf("delivered %.1f of %.1f Gbps: expected partial delivery", res.DeliveredGbps, res.OfferedGbps)
	}
}

// TestLeafSpineSpineOutageDrops: a dead spine cannot signal the leaves
// (partition isolation), so the flows hashed onto it blackhole at the
// spine and are counted as NodeDrops; flows on the surviving spine
// still arrive.
func TestLeafSpineSpineOutageDrops(t *testing.T) {
	cfg := lsCfg(4, 2, 1, Permutation(4, 10), 2)
	cfg.Faults = faults.NewPlan().
		Add(faults.Event{At: 0, Kind: faults.KindGPUFail, Node: 4}) // spine 0
	res, err := RunFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeDrops == 0 {
		t.Error("NodeDrops = 0 with spine 0 dead for the whole run")
	}
	if res.Delivered == 0 {
		t.Error("nothing delivered: surviving spine should carry its hash share")
	}
}

// TestFullMeshLinkFaultDrops: the same fault machinery works on the
// mesh — severing 0→1 makes node 0's direct traffic to 1 unroutable.
func TestFullMeshLinkFaultDrops(t *testing.T) {
	cfg := fabCfg(4, Direct, Uniform(4, 40), 2)
	cfg.Faults = faults.NewPlan().
		Add(faults.Event{At: 0, Kind: faults.KindLinkDown, Node: 0, Port: 0}) // slot 0 of node 0 = link to node 1
	res, err := RunFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RouteDrops == 0 {
		t.Error("RouteDrops = 0 with the 0→1 mesh link down")
	}
}

// TestFabricZipfFlows: the heavy-tailed flow model changes path choices
// (flows persist on one ECMP path) but not the offered load; it must
// deliver comparably to the per-batch-flow model and differ from it in
// detail.
func TestFabricZipfFlows(t *testing.T) {
	plain, err := RunFabric(lsCfg(8, 4, 2, Uniform(8, 80), 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := lsCfg(8, 4, 2, Uniform(8, 80), 2)
	cfg.Flows = FlowModel{ZipfS: 1.2}
	zipf, err := RunFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if zipf.Batches != plain.Batches {
		t.Errorf("flow model changed emission: %d batches vs %d", zipf.Batches, plain.Batches)
	}
	if zipf.DeliveredGbps < 0.85*zipf.OfferedGbps {
		t.Errorf("zipf flows delivered %.1f of %.1f Gbps", zipf.DeliveredGbps, zipf.OfferedGbps)
	}
	if reflect.DeepEqual(zipf, plain) {
		t.Error("zipf flow model produced byte-identical results to per-batch flows")
	}
}

// TestLeafSpineValidation: malformed topologies, mis-sized matrices
// (leaf-spine matrices are indexed by leaf, not by node), and
// out-of-range fault targets are rejected with errors, not panics.
func TestLeafSpineValidation(t *testing.T) {
	good := lsCfg(4, 2, 1, Uniform(4, 20), 1)
	if _, err := RunFabric(good); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*FabricConfig)
	}{
		{"one leaf", func(c *FabricConfig) { c.Topo.(*LeafSpine).Leaves = 1 }},
		{"no spines", func(c *FabricConfig) { c.Topo.(*LeafSpine).Spines = 0 }},
		{"no uplinks", func(c *FabricConfig) { c.Topo.(*LeafSpine).Uplinks = 0 }},
		{"zero uplink rate", func(c *FabricConfig) { c.Topo.(*LeafSpine).UplinkGbps = 0 }},
		{"zero edge rate", func(c *FabricConfig) { c.Topo.(*LeafSpine).EdgeGbps = 0 }},
		{"matrix sized to nodes", func(c *FabricConfig) { c.Matrix = Uniform(6, 20) }},
		{"fault node out of range", func(c *FabricConfig) {
			c.Faults = faults.NewPlan().Add(faults.Event{Kind: faults.KindLinkDown, Node: 6, Port: 0})
		}},
		{"fault slot out of range", func(c *FabricConfig) {
			c.Faults = faults.NewPlan().Add(faults.Event{Kind: faults.KindLinkDown, Node: 0, Port: 2})
		}},
	}
	for _, tc := range cases {
		cfg := lsCfg(4, 2, 1, Uniform(4, 20), 1)
		tc.mut(&cfg)
		if _, err := RunFabric(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
