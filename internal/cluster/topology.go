// topology.go abstracts the fabric's wiring so the event-level
// simulator in fabric.go can run any interconnect, not just the §7 full
// mesh. A Topology enumerates nodes and directed links in a fixed
// creation order (which pins the deterministic barrier-flush order) and
// makes the per-hop routing decision. Two implementations: FullMesh
// reproduces the original mesh exactly (Direct and Valiant routing),
// and LeafSpine is a datacenter-scale two-tier Clos — L leaves × S
// spines with ECMP over parallel uplinks, links growing O(L·S) instead
// of the mesh's O(n²).
package cluster

import (
	"errors"
	"fmt"
)

// TopoLink is one directed fabric link: batches from node From
// serialize at Gbps and propagate to node To.
type TopoLink struct {
	From, To int
	Gbps     float64
}

// Topology describes a fabric interconnect to RunFabric. Nodes are
// numbered 0..Nodes()-1; a node's outgoing links are its entries of
// Links() in order, indexed by slot. External nodes own an external
// port: they are the sources and sinks of the traffic matrix (the
// matrix is indexed by external node id, so implementations must
// number external nodes first).
type Topology interface {
	// Nodes is the total node count, Externals how many of them (the
	// first Externals ids) have external ports.
	Nodes() int
	Externals() int
	// ExternalGbps is node i's external port rate (i < Externals);
	// ForwardGbps its packet-processing budget.
	ExternalGbps(i int) float64
	ForwardGbps(i int) float64
	// Links enumerates every directed link once, grouped by From in a
	// fixed order: the k-th link of node i is its egress slot k.
	Links() []TopoLink
	// NextHop picks the egress slot at node i for a batch of the flow
	// with RSS hash `hash` that entered the fabric at src and leaves it
	// at dst (dst != i). alive is node i's per-slot link-up state, nil
	// when every slot is up; implementations must not pick a dead slot.
	// ok=false means the batch is unroutable (blackholed) at this node.
	// The flow is passed by value: a pointer through this interface
	// would put every forwarded batch on the heap.
	NextHop(i, src, dst int, hash uint32, alive []bool) (slot int, ok bool)
	Validate() error
}

// FullMesh is the original §7 scale-out fabric: every node pairs with
// every other over a dedicated link, routed Direct or via Valiant
// intermediates. All nodes are external.
type FullMesh struct {
	Cluster Config
	Scheme  Routing
}

// Nodes implements Topology.
func (m *FullMesh) Nodes() int { return m.Cluster.Nodes }

// Externals implements Topology: every mesh node has an external port.
func (m *FullMesh) Externals() int { return m.Cluster.Nodes }

// ExternalGbps implements Topology.
func (m *FullMesh) ExternalGbps(int) float64 { return m.Cluster.ExternalGbps }

// ForwardGbps implements Topology.
func (m *FullMesh) ForwardGbps(int) float64 { return m.Cluster.NodeForwardingGbps }

// Links implements Topology: the full mesh in (src, dst) order, exactly
// the creation order the pre-Topology fabric used.
func (m *FullMesh) Links() []TopoLink {
	n := m.Cluster.Nodes
	links := make([]TopoLink, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i {
				links = append(links, TopoLink{From: i, To: j, Gbps: m.Cluster.InternalLinkGbps})
			}
		}
	}
	return links
}

// NextHop implements Topology. Routing is src → via → dst with
// degenerate intermediates collapsing to the direct link, mirroring
// Evaluate's addFlow; the Valiant intermediate comes from the batch's
// RSS flow hash, the way hardware RSS spreads flows over queues.
func (m *FullMesh) NextHop(i, src, dst int, hash uint32, alive []bool) (int, bool) {
	hop := dst
	if m.Scheme == VLB && i == src {
		if via := int(hash % uint32(m.Cluster.Nodes)); via != src && via != dst {
			hop = via
		}
	}
	slot := hop
	if hop > i {
		slot = hop - 1
	}
	return slot, alive == nil || alive[slot]
}

// Validate implements Topology.
func (m *FullMesh) Validate() error {
	if err := m.Cluster.Validate(); err != nil {
		return err
	}
	if m.Scheme != Direct && m.Scheme != VLB {
		return fmt.Errorf("fabric: scheme %v not modeled (use the analytic Evaluate)", m.Scheme)
	}
	return nil
}

// LeafSpine is a two-tier Clos fabric: Leaves edge nodes (external
// ports, ids 0..Leaves-1) each connect to every one of Spines core
// nodes (ids Leaves..Leaves+Spines-1) over Uplinks parallel links.
// Leaf-to-leaf traffic crosses one spine chosen per flow by ECMP over
// the batch's RSS hash — among the live parallel links of live spines —
// so a fabric of L leaves needs L·S·Uplinks·2 links instead of the
// mesh's L·(L-1).
type LeafSpine struct {
	Leaves, Spines int
	// Uplinks is the number of parallel links between each leaf-spine
	// pair (ECMP width per pair).
	Uplinks int
	// EdgeGbps is each leaf's external port rate; LeafGbps and
	// SpineGbps the forwarding budgets; UplinkGbps each link's rate.
	EdgeGbps   float64
	LeafGbps   float64
	SpineGbps  float64
	UplinkGbps float64
}

// Nodes implements Topology.
func (t *LeafSpine) Nodes() int { return t.Leaves + t.Spines }

// Externals implements Topology: the leaves.
func (t *LeafSpine) Externals() int { return t.Leaves }

// ExternalGbps implements Topology (spines have no external port).
func (t *LeafSpine) ExternalGbps(i int) float64 {
	if i < t.Leaves {
		return t.EdgeGbps
	}
	return 0
}

// ForwardGbps implements Topology.
func (t *LeafSpine) ForwardGbps(i int) float64 {
	if i < t.Leaves {
		return t.LeafGbps
	}
	return t.SpineGbps
}

// Links implements Topology. A leaf's slot s*Uplinks+u is its u-th
// parallel link to spine s; a spine's slot l*Uplinks+u its u-th link
// down to leaf l — pure arithmetic, no routing tables.
func (t *LeafSpine) Links() []TopoLink {
	links := make([]TopoLink, 0, 2*t.Leaves*t.Spines*t.Uplinks)
	for l := 0; l < t.Leaves; l++ {
		for s := 0; s < t.Spines; s++ {
			for u := 0; u < t.Uplinks; u++ {
				links = append(links, TopoLink{From: l, To: t.Leaves + s, Gbps: t.UplinkGbps})
			}
		}
	}
	for s := 0; s < t.Spines; s++ {
		for l := 0; l < t.Leaves; l++ {
			for u := 0; u < t.Uplinks; u++ {
				links = append(links, TopoLink{From: t.Leaves + s, To: l, Gbps: t.UplinkGbps})
			}
		}
	}
	return links
}

// NextHop implements Topology. At a leaf, ECMP picks the hash-th live
// slot among all Spines×Uplinks uplinks, so a flow sticks to one path
// while live-path churn (faults) only remaps hash buckets. At a spine,
// the same hash picks among the Uplinks parallel links down to the
// destination leaf. With every slot up (alive == nil) the hash-th live
// slot is slot lo+hash%(hi-lo), so no scan runs: a scan that stops at
// a hash-chosen slot mispredicts its exit on nearly every call.
func (t *LeafSpine) NextHop(i, _, dst int, hash uint32, alive []bool) (int, bool) {
	lo, hi := 0, t.Spines*t.Uplinks
	if i >= t.Leaves {
		lo = dst * t.Uplinks
		hi = lo + t.Uplinks
	}
	if alive == nil {
		return lo + int(hash%uint32(hi-lo)), true
	}
	live := 0
	for s := lo; s < hi; s++ {
		if alive[s] {
			live++
		}
	}
	if live == 0 {
		return 0, false
	}
	pick := int(hash % uint32(live))
	for s := lo; s < hi; s++ {
		if alive[s] {
			if pick == 0 {
				return s, true
			}
			pick--
		}
	}
	panic("cluster: LeafSpine.NextHop live-slot accounting")
}

// Validate implements Topology.
func (t *LeafSpine) Validate() error {
	if t.Leaves < 2 || t.Spines < 1 || t.Uplinks < 1 {
		return errors.New("cluster: leaf-spine needs ≥2 leaves, ≥1 spine, ≥1 uplink")
	}
	if !(t.EdgeGbps > 0 && t.LeafGbps > 0 && t.SpineGbps > 0 && t.UplinkGbps > 0) { // NaN fails too
		return fmt.Errorf("cluster: every leaf-spine node and link needs positive rates, got edge %v, leaf %v, spine %v, uplink %v Gbps",
			t.EdgeGbps, t.LeafGbps, t.SpineGbps, t.UplinkGbps)
	}
	return nil
}
