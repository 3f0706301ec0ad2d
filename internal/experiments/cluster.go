package experiments

import (
	"fmt"

	"packetshader/internal/cluster"
	"packetshader/internal/faults"
	"packetshader/internal/obs"
	"packetshader/internal/sim"
)

// fabricSpec is one row of the fabric experiment: a full mesh of n
// PacketShader boxes under one traffic matrix and routing scheme, or
// (leafSpine set) a leaf–spine fabric under ECMP.
type fabricSpec struct {
	n         int
	matrix    string
	scheme    cluster.Routing
	leafSpine *cluster.LeafSpine
	faulted   bool
}

// fabricScaling is the §7 horizontal-scaling experiment. Each mesh row
// asks the analytic model (cluster.Evaluate) what a cluster of 2–16
// boxes admits under direct routing, Valiant Load Balancing and
// RouteBricks-style direct VLB, for benign (uniform), hot-pair
// (permutation) and adversarial (incast) traffic, then offers 90 % of
// that to the discrete-event fabric — per-node sim partitions joined by
// latency-carrying links — and reports what it delivered: the model is
// the simulation's oracle column. Each box has 40 Gbps of external
// ports and Figure 6's ≈40 Gbps forwarding budget; mesh links are
// 10GbE. The leaf–spine rows take the fabric to 128 leaves with ECMP,
// one of them faulted; the model does not cover them.
func fabricScaling(c *Ctx) *Result {
	r := &Result{
		ID:    "fabric",
		Title: "Scale-out fabric (§7): analytic admissible Gbps beside simulated delivery",
		Header: []string{"Topology", "Links", "Matrix", "Scheme", "admissible", "model-hops",
			"offered", "delivered", "hops", "mean-lat(us)", "max-lat(us)", "route-drop", "node-drop"},
	}
	var specs []fabricSpec
	for _, n := range []int{2, 4, 8, 16} {
		for _, m := range []string{"uniform", "permutation", "incast"} {
			for _, s := range []cluster.Routing{cluster.Direct, cluster.VLB, cluster.DirectVLB} {
				specs = append(specs, fabricSpec{n: n, matrix: m, scheme: s})
			}
		}
	}
	for _, ls := range []struct {
		leaves, spines int
		faulted        bool
	}{{16, 4, false}, {64, 8, false}, {128, 16, false}, {128, 16, true}} {
		specs = append(specs, fabricSpec{matrix: "uniform", faulted: ls.faulted,
			leafSpine: &cluster.LeafSpine{
				Leaves: ls.leaves, Spines: ls.spines, Uplinks: 2,
				EdgeGbps: 40, LeafGbps: 40, SpineGbps: 160, UplinkGbps: 10,
			}})
	}
	r.Rows = MapPoints(c, len(specs), func(i int, pt *Point) []Cell {
		return fabricRow(specs[i], c.r.PartitionWorkers, pt)
	})
	r.Note("mesh rows offer 0.9 x admissible; the fabric does not model direct-vlb's spill, so those rows are the model's alone")
	r.Note("one PacketShader box replaces RB4, RouteBricks' 4-machine cluster (§8)")
	r.Note("VLB trades forwarding budget (≈3 hops) for guaranteed worst-case throughput")
	r.Note("one sim partition per node; links carry 50us lookahead; batches are 16 KiB")
	r.Note("identical output for any -p: conservative windows + ordered merge are provably serial-equivalent")
	r.Note("two procs per node regardless of degree: wire serialization is an arithmetic FIFO recurrence")
	r.Note("leaf-spine flows are Zipf(1.1)-sized and keep their RSS hash, so ECMP pins each flow to one spine path")
	r.Note("a dead spine blackholes its hash share (leaves cannot see spine state across partitions)")
	return r
}

// meshMatrix returns the named traffic matrix over n nodes at total
// offered Gbps.
func meshMatrix(kind string, n int, total float64) cluster.Matrix {
	switch kind {
	case "uniform":
		return cluster.Uniform(n, total)
	case "permutation":
		return cluster.Permutation(n, total/float64(n))
	}
	return cluster.Incast(n, total/float64(n-1))
}

// fabricRow evaluates and runs one spec. A mesh row's model columns
// come from Evaluate at full external load (40 Gbps per sending box),
// and its simulation offers 0.9 of what that admits; cells the row has
// no run for print as "-".
func fabricRow(s fabricSpec, workers int, pt *Point) []Cell {
	cfg := cluster.FabricConfig{
		LinkLatency: 50 * sim.Microsecond,
		Horizon:     5 * sim.Millisecond,
		Seed:        2026,
		Workers:     workers,
	}
	dash := Label("-")
	var topo, scheme string
	var model []Cell
	if ls := s.leafSpine; ls != nil {
		topo, scheme = fmt.Sprintf("leafspine-%dx%d", ls.Leaves, ls.Spines), "ecmp"
		model = []Cell{dash, dash}
		cfg.Topo = ls
		// 10 Gbps of uniform ingress per leaf: inside every budget, so
		// healthy rows should deliver essentially all of it.
		cfg.Matrix = cluster.Uniform(ls.Leaves, float64(ls.Leaves)*10)
		cfg.Flows = cluster.FlowModel{ZipfS: 1.1}
		if s.faulted {
			topo += "-faulted"
			cfg.Faults = faults.NewPlan().
				// Leaf 0's uplink slot 0 never comes up; spine 1 dies for
				// the middle fifth of the run.
				Add(faults.Event{At: 0, Kind: faults.KindLinkDown, Node: 0, Port: 0}).
				GPUOutage(ls.Leaves+1, 2*sim.Millisecond, 1*sim.Millisecond)
		}
	} else {
		topo, scheme = fmt.Sprintf("mesh-%d", s.n), s.scheme.String()
		mesh := cluster.Config{Nodes: s.n, ExternalGbps: 40, NodeForwardingGbps: 40, InternalLinkGbps: 10}
		senders := s.n
		if s.matrix == "incast" {
			senders--
		}
		ev, err := cluster.Evaluate(mesh, s.scheme, meshMatrix(s.matrix, s.n, float64(senders)*40))
		if err != nil {
			panic(err)
		}
		model = []Cell{Num("%.0f", ev.ThroughputGbps), Num("%.2f", ev.MeanHops)}
		cfg.Topo = &cluster.FullMesh{Cluster: mesh, Scheme: s.scheme}
		cfg.Matrix = meshMatrix(s.matrix, s.n, 0.9*ev.ThroughputGbps)
	}
	row := append([]Cell{Label(topo), Int(len(cfg.Topo.Links())), Label(s.matrix), Label(scheme)}, model...)
	if s.scheme == cluster.DirectVLB {
		return append(row, dash, dash, dash, dash, dash, dash, dash)
	}
	res, m, err := cluster.RunFabricMetrics(cfg)
	if err != nil {
		panic(err)
	}
	if mw := pt.MetricsWriter(); mw != nil {
		reg := obs.NewRegistry()
		reg.Counter("fabric.batches").Set(res.Batches)
		reg.Counter("fabric.forwards").Set(res.Forwards)
		reg.Counter("fabric.deliveries").Set(res.Delivered)
		reg.Counter("fabric.route_drops").Set(res.RouteDrops)
		reg.Counter("fabric.node_drops").Set(res.NodeDrops)
		reg.Counter("fabric.late").Set(res.Late)
		reg.Counter("fabric.in_flight").Set(res.InFlight)
		reg.Counter("fabric.inbox_peak").Set(uint64(m.InboxPeak))
		util := reg.Histogram("fabric.slot_util_permille", obs.UnitCount)
		for _, u := range m.SlotUtil {
			util.Observe(u)
		}
		reg.ObserveWorld(m.World)
		fmt.Fprintf(mw, "--- metrics fabric %s %s %s ---\n", topo, s.matrix, scheme)
		reg.Dump(mw) //nolint:errcheck // a Point's buffer does not fail
	}
	return append(row,
		Num("%.0f", res.OfferedGbps),
		Num("%.1f", res.DeliveredGbps),
		Num("%.2f", res.MeanHops),
		Num("%.1f", res.MeanLatency.Seconds()*1e6),
		Num("%.1f", res.MaxLatency.Seconds()*1e6),
		Int(int(res.RouteDrops)),
		Int(int(res.NodeDrops)),
	)
}
