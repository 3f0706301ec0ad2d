// Package cluster models the §7 "horizontal scaling" direction: several
// PacketShader boxes interconnected in a full mesh, scaled out with
// Valiant Load Balancing (VLB) or direct VLB as RouteBricks does. It
// answers the provisioning questions the paper defers: how aggregate
// external capacity grows with the node count, what internal link
// bandwidth each scheme needs, and how many forwarding operations each
// packet costs — under both benign and adversarial traffic matrices.
//
// The model is flow-level: a traffic matrix is routed by the chosen
// scheme, per-node processing and per-link loads are accumulated, and
// the admissible throughput is the largest uniform scaling of the
// matrix that keeps every resource within capacity.
package cluster

import (
	"errors"
	"fmt"
)

// Routing selects the packet-routing scheme across the mesh.
type Routing int

// Routing schemes.
const (
	// Direct sends i→j traffic on the direct link.
	Direct Routing = iota
	// VLB routes every packet through a uniformly random intermediate
	// (Valiant & Brebner): two internal hops, guaranteed throughput for
	// any admissible matrix at the cost of doubled internal traffic.
	VLB
	// DirectVLB (RouteBricks) sends traffic directly when the direct
	// link has room and load-balances only the excess.
	DirectVLB
)

func (r Routing) String() string {
	switch r {
	case Direct:
		return "direct"
	case VLB:
		return "vlb"
	case DirectVLB:
		return "direct-vlb"
	}
	return fmt.Sprintf("Routing(%d)", int(r))
}

// Config describes the cluster.
type Config struct {
	// Nodes is the number of PacketShader boxes (≥2 for a mesh).
	Nodes int
	// ExternalGbps is each node's external port capacity (ingress and
	// egress each), e.g. 40 for our 4×10GbE per node arrangement.
	ExternalGbps float64
	// NodeForwardingGbps is a box's packet-processing budget: every
	// forwarding operation (external→link, link→link, link→external)
	// consumes it. A single PacketShader box sustains ≈40 Gbps.
	NodeForwardingGbps float64
	// InternalLinkGbps is the capacity of each directed mesh link.
	InternalLinkGbps float64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Nodes < 2 {
		return errors.New("cluster: need at least 2 nodes")
	}
	if c.ExternalGbps <= 0 || c.NodeForwardingGbps <= 0 || c.InternalLinkGbps <= 0 {
		return errors.New("cluster: capacities must be positive")
	}
	return nil
}

// Matrix is a traffic matrix: M[i][j] is offered Gbps entering node i's
// external ports destined to node j's external ports. Diagonal entries
// (local switching) are allowed.
type Matrix [][]float64

// Uniform returns the all-to-all matrix with total aggregate offered
// load spread evenly (including local traffic).
func Uniform(n int, totalGbps float64) Matrix {
	m := make(Matrix, n)
	per := totalGbps / float64(n*n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = per
		}
	}
	return m
}

// Permutation returns the worst benign matrix: node i sends everything
// to node (i+1) mod n.
func Permutation(n int, perNodeGbps float64) Matrix {
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][(i+1)%n] = perNodeGbps
	}
	return m
}

// Incast returns the adversarial matrix: every node sends to node 0.
func Incast(n int, perNodeGbps float64) Matrix {
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]float64, n)
		if i != 0 {
			m[i][0] = perNodeGbps
		}
	}
	return m
}

// Total sums the matrix.
func (m Matrix) Total() float64 {
	var t float64
	for i := range m {
		for j := range m[i] {
			t += m[i][j]
		}
	}
	return t
}

// Result reports the evaluation of a matrix under a scheme.
type Result struct {
	// Admissible is the largest uniform scale factor λ such that λ×M
	// fits every capacity (λ>1 means headroom; λ<1 means overload).
	Admissible float64
	// ThroughputGbps is λ×Total(M) capped at 1×: the traffic actually
	// carried when M is offered.
	ThroughputGbps float64
	// MeanHops is the average forwarding operations per packet.
	MeanHops float64
	// MaxLinkUtil, MaxNodeUtil, MaxExtUtil are the binding utilizations
	// at the offered (unscaled) load.
	MaxLinkUtil, MaxNodeUtil, MaxExtUtil float64
	// Bottleneck names the binding resource.
	Bottleneck string
}

// Evaluate routes m under the scheme and reports admissibility.
func Evaluate(cfg Config, scheme Routing, m Matrix) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	n := cfg.Nodes
	if len(m) != n {
		return Result{}, errors.New("cluster: matrix size mismatch")
	}
	link := make([][]float64, n) // directed link loads
	for i := range link {
		link[i] = make([]float64, n)
	}
	node := make([]float64, n)   // forwarding load per node
	extIn := make([]float64, n)  // external ingress per node
	extOut := make([]float64, n) // external egress per node

	var hopWeighted, total float64
	addFlow := func(src, dst int, gbps float64, via int) {
		// Forwarding operations: one at each node the packet visits.
		extIn[src] += gbps
		extOut[dst] += gbps
		if src == dst {
			node[src] += gbps // local switching: one forward, no detour
			hopWeighted += gbps
			return
		}
		if via == src || via == dst {
			// Direct (or degenerate intermediate): src and dst forward.
			node[src] += gbps
			node[dst] += gbps
			link[src][dst] += gbps
			hopWeighted += 2 * gbps
			return
		}
		node[src] += gbps
		node[via] += gbps
		node[dst] += gbps
		link[src][via] += gbps
		link[via][dst] += gbps
		hopWeighted += 3 * gbps
	}

	for src := range m {
		for dst, gbps := range m[src] {
			if gbps <= 0 {
				continue
			}
			total += gbps
			switch scheme {
			case Direct:
				addFlow(src, dst, gbps, src)
			case VLB:
				// Spread over all n intermediates (including src and
				// dst, which degenerate to the direct path).
				share := gbps / float64(n)
				for via := 0; via < n; via++ {
					addFlow(src, dst, share, via)
				}
			case DirectVLB:
				// Send directly up to the direct link's capacity; spill
				// the rest VLB-style over the other nodes. With fewer
				// than three nodes there is no detour path, so
				// everything goes direct.
				direct := gbps
				if src != dst && n > 2 {
					if room := cfg.InternalLinkGbps - link[src][dst]; direct > room {
						direct = max(room, 0)
					}
				}
				addFlow(src, dst, direct, src)
				if excess := gbps - direct; excess > 1e-12 {
					share := excess / float64(n-2)
					for via := 0; via < n; via++ {
						if via == src || via == dst {
							continue
						}
						addFlow(src, dst, share, via)
					}
				}
			}
		}
	}

	res := Result{}
	if total == 0 {
		res.Admissible = 1
		return res, nil
	}
	res.MeanHops = hopWeighted / total
	worst := 0.0
	consider := func(util float64, name string) {
		if util > worst {
			worst = util
			res.Bottleneck = name
		}
	}
	for i := 0; i < n; i++ {
		consider(node[i]/cfg.NodeForwardingGbps, fmt.Sprintf("node %d forwarding", i))
		consider(extIn[i]/cfg.ExternalGbps, fmt.Sprintf("node %d external ingress", i))
		consider(extOut[i]/cfg.ExternalGbps, fmt.Sprintf("node %d external egress", i))
		if node[i]/cfg.NodeForwardingGbps > res.MaxNodeUtil {
			res.MaxNodeUtil = node[i] / cfg.NodeForwardingGbps
		}
		u := extIn[i] / cfg.ExternalGbps
		if v := extOut[i] / cfg.ExternalGbps; v > u {
			u = v
		}
		if u > res.MaxExtUtil {
			res.MaxExtUtil = u
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			lu := link[i][j] / cfg.InternalLinkGbps
			consider(lu, fmt.Sprintf("link %d->%d", i, j))
			if lu > res.MaxLinkUtil {
				res.MaxLinkUtil = lu
			}
		}
	}
	if worst == 0 {
		res.Admissible = 1
	} else {
		res.Admissible = 1 / worst
	}
	res.ThroughputGbps = total * min(res.Admissible, 1)
	return res, nil
}
