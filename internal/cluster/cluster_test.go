package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

// ps is a 4-node cluster of PacketShader-class boxes: 40 Gbps external,
// 40 Gbps forwarding budget, 10 Gbps internal mesh links.
func ps(n int) Config {
	return Config{
		Nodes:              n,
		ExternalGbps:       40,
		NodeForwardingGbps: 40,
		InternalLinkGbps:   10,
	}
}

func TestValidate(t *testing.T) {
	c := ps(4)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := c
	bad.Nodes = 1
	if bad.Validate() == nil {
		t.Error("1-node cluster accepted")
	}
	bad = c
	bad.InternalLinkGbps = 0
	if bad.Validate() == nil {
		t.Error("zero link capacity accepted")
	}
}

func TestMatrixBuilders(t *testing.T) {
	u := Uniform(4, 80)
	if math.Abs(u.Total()-80) > 1e-9 {
		t.Errorf("uniform total = %v", u.Total())
	}
	p := Permutation(4, 10)
	if p.Total() != 40 || p[0][1] != 10 || p[3][0] != 10 || p[0][2] != 0 {
		t.Errorf("permutation wrong: %v", p)
	}
	in := Incast(4, 10)
	if in.Total() != 30 || in[0][0] != 0 {
		t.Errorf("incast wrong: %v", in)
	}
}

func TestDirectUniformScalesWithNodes(t *testing.T) {
	// Uniform all-to-all traffic is the benign case: direct routing
	// carries it until the external ports or node budget saturate.
	for _, n := range []int{2, 4, 8} {
		cfg := ps(n)
		res, err := Evaluate(cfg, Direct, Uniform(n, float64(n)*20))
		if err != nil {
			t.Fatal(err)
		}
		if res.Admissible < 1 {
			t.Errorf("n=%d: uniform 20G/node inadmissible (%.2f, %s)",
				n, res.Admissible, res.Bottleneck)
		}
	}
}

func TestDirectPermutationLimitedByOneLink(t *testing.T) {
	// A permutation matrix pushes each node's full load over a single
	// 10G link: direct routing caps at the link capacity.
	cfg := ps(4)
	res, err := Evaluate(cfg, Direct, Permutation(4, 40))
	if err != nil {
		t.Fatal(err)
	}
	// 40G offered per node over one 10G link → λ = 0.25.
	if math.Abs(res.Admissible-0.25) > 0.01 {
		t.Errorf("admissible = %v, want 0.25 (link-bound)", res.Admissible)
	}
	if res.MaxLinkUtil < 3.9 {
		t.Errorf("link util = %v, want ≈4", res.MaxLinkUtil)
	}
}

func TestVLBSpreadsPermutation(t *testing.T) {
	// VLB spreads the same permutation across all links: per-link load
	// drops ≈4× (from 4× over capacity to exactly 1×), and overall
	// admissibility improves — now bounded by the node forwarding
	// budget (each box also forwards transit traffic) rather than by a
	// single hot link.
	cfg := ps(8)
	direct, _ := Evaluate(cfg, Direct, Permutation(8, 40))
	vlb, _ := Evaluate(cfg, VLB, Permutation(8, 40))
	if vlb.Admissible <= direct.Admissible {
		t.Errorf("VLB %.2f not better than direct %.2f on a permutation", vlb.Admissible, direct.Admissible)
	}
	if direct.MaxLinkUtil < vlb.MaxLinkUtil*3.5 {
		t.Errorf("VLB link spreading weak: direct %.2f vs VLB %.2f", direct.MaxLinkUtil, vlb.MaxLinkUtil)
	}
	if vlb.MeanHops <= direct.MeanHops {
		t.Error("VLB should cost more hops")
	}
}

func TestVLBMeanHopsApproachesThree(t *testing.T) {
	// With many nodes, almost every VLB packet takes the 2-internal-hop
	// detour: 3 forwarding operations.
	cfg := ps(16)
	res, _ := Evaluate(cfg, VLB, Permutation(16, 10))
	if res.MeanHops < 2.8 || res.MeanHops > 3.0 {
		t.Errorf("VLB mean hops = %v, want ≈3", res.MeanHops)
	}
	direct, _ := Evaluate(cfg, Direct, Permutation(16, 10))
	if direct.MeanHops != 2 {
		t.Errorf("direct mean hops = %v, want 2", direct.MeanHops)
	}
}

func TestIncastBoundByReceiverPorts(t *testing.T) {
	// All-to-one traffic can never exceed the receiver's external
	// egress, whatever the routing.
	cfg := ps(8)
	for _, scheme := range []Routing{Direct, VLB, DirectVLB} {
		res, _ := Evaluate(cfg, scheme, Incast(8, 40))
		if res.ThroughputGbps > cfg.ExternalGbps+1e-9 {
			t.Errorf("%v: incast throughput %v exceeds receiver capacity", scheme, res.ThroughputGbps)
		}
	}
}

func TestDirectVLBNoWorseThanEitherOnPermutation(t *testing.T) {
	cfg := ps(8)
	// 20G per node: half fits the direct links, half must detour —
	// direct-VLB should send exactly the fitting half directly.
	m := Permutation(8, 20)
	direct, _ := Evaluate(cfg, Direct, m)
	vlb, _ := Evaluate(cfg, VLB, m)
	adaptive, _ := Evaluate(cfg, DirectVLB, m)
	if adaptive.Admissible < direct.Admissible-1e-9 {
		t.Errorf("direct-VLB %.3f worse than direct %.3f", adaptive.Admissible, direct.Admissible)
	}
	if adaptive.Admissible < vlb.Admissible-1e-9 {
		t.Errorf("direct-VLB %.3f worse than VLB %.3f", adaptive.Admissible, vlb.Admissible)
	}
	// And it saves hops versus pure VLB on the fraction sent directly.
	if adaptive.MeanHops >= vlb.MeanHops {
		t.Errorf("direct-VLB hops %v not below VLB %v", adaptive.MeanHops, vlb.MeanHops)
	}
}

func TestDirectVLBUniformStaysDirect(t *testing.T) {
	// Benign uniform traffic fits the direct links: no detours.
	cfg := ps(8)
	res, _ := Evaluate(cfg, DirectVLB, Uniform(8, 160))
	if res.MeanHops > 2.01 {
		t.Errorf("uniform traffic detoured: hops %v", res.MeanHops)
	}
}

func TestLocalTrafficOneHop(t *testing.T) {
	cfg := ps(4)
	m := make(Matrix, 4)
	for i := range m {
		m[i] = make([]float64, 4)
	}
	m[2][2] = 10 // local switching only
	res, _ := Evaluate(cfg, Direct, m)
	if res.MeanHops != 1 {
		t.Errorf("local traffic hops = %v, want 1", res.MeanHops)
	}
	if res.MaxLinkUtil != 0 {
		t.Errorf("local traffic used mesh links: %v", res.MaxLinkUtil)
	}
}

func TestEmptyMatrixAdmissible(t *testing.T) {
	cfg := ps(4)
	res, _ := Evaluate(cfg, VLB, Uniform(4, 0))
	if res.Admissible != 1 || res.ThroughputGbps != 0 {
		t.Errorf("empty matrix: %+v", res)
	}
}

func TestMatrixSizeMismatch(t *testing.T) {
	if _, err := Evaluate(ps(4), Direct, Uniform(3, 10)); err == nil {
		t.Error("size mismatch accepted")
	}
}

// TestEvaluateRejectsHostileInput: a matrix or capacity the model
// cannot route is an error under every scheme, never a panic (a ragged
// row indexed past its end) or a NaN throughput with a nil error.
func TestEvaluateRejectsHostileInput(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(*Config)
		m    func(Matrix) Matrix
	}{
		{"ragged long row", nil, func(m Matrix) Matrix { m[0] = append(m[0], 1); return m }},
		{"ragged short row", nil, func(m Matrix) Matrix { m[2] = m[2][:1]; return m }},
		{"nil row", nil, func(m Matrix) Matrix { m[3] = nil; return m }},
		{"NaN rate", nil, func(m Matrix) Matrix { m[1][2] = math.NaN(); return m }},
		{"+Inf rate", nil, func(m Matrix) Matrix { m[1][2] = math.Inf(1); return m }},
		{"-Inf rate", nil, func(m Matrix) Matrix { m[1][2] = math.Inf(-1); return m }},
		{"negative rate", nil, func(m Matrix) Matrix { m[1][2] = -1; return m }},
		{"NaN external", func(c *Config) { c.ExternalGbps = math.NaN() }, nil},
		{"NaN forwarding", func(c *Config) { c.NodeForwardingGbps = math.NaN() }, nil},
		{"NaN link", func(c *Config) { c.InternalLinkGbps = math.NaN() }, nil},
	}
	for _, tc := range cases {
		for _, scheme := range []Routing{Direct, VLB, DirectVLB} {
			cfg, m := ps(4), Uniform(4, 40)
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			if tc.m != nil {
				m = tc.m(m)
			}
			if res, err := Evaluate(cfg, scheme, m); err == nil {
				t.Errorf("%s under %v: accepted, %+v", tc.name, scheme, res)
			}
		}
	}
}

// Property: VLB throughput is invariant under source permutations of
// the matrix (load balancing erases who-sends-to-whom structure in the
// link layer, up to the external port constraints).
func TestVLBAdmissibilityPermutationInvariant(t *testing.T) {
	cfg := ps(4)
	f := func(loads [4]uint8) bool {
		m := make(Matrix, 4)
		for i := range m {
			m[i] = make([]float64, 4)
			m[i][(i+1)%4] = float64(loads[i]%40) + 1
		}
		base, err := Evaluate(cfg, VLB, m)
		if err != nil {
			return false
		}
		// Relabel nodes: rotate sources and destinations by 1.
		rot := make(Matrix, 4)
		for i := range rot {
			rot[i] = make([]float64, 4)
		}
		for i := range m {
			for j := range m[i] {
				rot[(i+1)%4][(j+1)%4] = m[i][j]
			}
		}
		rres, err := Evaluate(cfg, VLB, rot)
		if err != nil {
			return false
		}
		return math.Abs(base.Admissible-rres.Admissible) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: scaling the matrix by c scales admissibility by 1/c.
func TestAdmissibilityScalesInversely(t *testing.T) {
	cfg := ps(4)
	m := Permutation(4, 8)
	r1, _ := Evaluate(cfg, VLB, m)
	m2 := Permutation(4, 16)
	r2, _ := Evaluate(cfg, VLB, m2)
	if math.Abs(r1.Admissible/r2.Admissible-2) > 1e-6 {
		t.Errorf("admissibility not inverse-linear: %v vs %v", r1.Admissible, r2.Admissible)
	}
}
