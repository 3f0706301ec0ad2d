package cluster

import (
	"math"
	"reflect"
	"testing"

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
	}
	for _, tc := range cases {
		cfg := fabCfg(4, Direct, Uniform(4, 40), 1)
		tc.mut(&cfg)
		if _, err := RunFabric(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
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
	genGbps := float64(res.Batches) * (16 << 10) * 8 / (fabCfg(4, Direct, nil, 1).Horizon.Seconds() * 1e9)
	if genGbps < 72 || genGbps > 88 {
		t.Errorf("generated %.1f Gbps for 80 offered", genGbps)
	}
}
