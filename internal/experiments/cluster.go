package experiments

import (
	"packetshader/internal/cluster"
	"packetshader/internal/faults"
	"packetshader/internal/sim"
)

// clusterScaling evaluates the §7 horizontal-scaling direction: aggregate
// capacity of a full-mesh cluster of PacketShader boxes under direct
// routing, Valiant Load Balancing, and RouteBricks-style direct VLB,
// for benign (uniform), hot-pair (permutation), and adversarial
// (incast) traffic. Each box contributes 40 Gbps of external ports and
// the single-box ≈40 Gbps forwarding budget measured in Figure 6;
// internal mesh links are 10GbE.
func clusterScaling(c *Ctx) *Result {
	r := &Result{
		ID:     "cluster",
		Title:  "Horizontal scaling with VLB (§7): admissible aggregate Gbps",
		Header: []string{"Nodes", "Matrix", "direct", "vlb", "direct-vlb", "hops(direct-vlb)"},
	}
	type spec struct {
		nodes  int
		matrix string
	}
	var specs []spec
	for _, n := range []int{2, 4, 8, 16} {
		for _, m := range []string{"uniform", "permutation", "incast"} {
			specs = append(specs, spec{n, m})
		}
	}
	rows := MapPoints(c, len(specs), func(i int, _ *Point) []Cell {
		s := specs[i]
		cfg := cluster.Config{
			Nodes:              s.nodes,
			ExternalGbps:       40,
			NodeForwardingGbps: 40,
			InternalLinkGbps:   10,
		}
		var m cluster.Matrix
		switch s.matrix {
		case "uniform":
			m = cluster.Uniform(s.nodes, float64(s.nodes)*40)
		case "permutation":
			m = cluster.Permutation(s.nodes, 40)
		default:
			m = cluster.Incast(s.nodes, 40)
		}
		row := []Cell{Int(s.nodes), Label(s.matrix)}
		var hops float64
		for _, scheme := range []cluster.Routing{cluster.Direct, cluster.VLB, cluster.DirectVLB} {
			res, err := cluster.Evaluate(cfg, scheme, m)
			if err != nil {
				panic(err)
			}
			row = append(row, Num("%.0f", res.ThroughputGbps))
			if scheme == cluster.DirectVLB {
				hops = res.MeanHops
			}
		}
		return append(row, Num("%.2f", hops))
	})
	r.Rows = append(r.Rows, rows...)
	r.Note("one PacketShader box replaces RB4, RouteBricks' 4-machine cluster (§8)")
	r.Note("VLB trades forwarding budget (≈3 hops) for guaranteed worst-case throughput")
	return r
}

// partitionWorkers is the number of host goroutines the DES fabric uses
// to advance its per-node partitions (the psbench -p value). Results
// are byte-identical for any value; only wall-clock time changes. Set
// before running experiments, from one goroutine — jobs only read it.
var partitionWorkers = 1

// SetPartitionWorkers sets the conservative-parallel worker count for
// fabric runs (values below 1 mean 1).
func SetPartitionWorkers(n int) {
	if n < 1 {
		n = 1
	}
	partitionWorkers = n
}

// fabricScaling runs the cluster DES fabric: where the cluster experiment
// asks the analytic model what is admissible, this one builds a world
// of per-node sim partitions connected by latency-carrying links,
// advances them conservatively in parallel, and reports what the mesh
// actually delivered.
func fabricScaling(c *Ctx) *Result {
	r := &Result{
		ID:     "fabric",
		Title:  "Cluster DES fabric (§7): delivered Gbps on per-node partitions",
		Header: []string{"Nodes", "Scheme", "offered", "admissible", "delivered", "hops", "mean-lat(us)", "max-lat(us)"},
	}
	type spec struct {
		nodes  int
		scheme cluster.Routing
		name   string
	}
	var specs []spec
	for _, n := range []int{4, 8, 16} {
		specs = append(specs, spec{n, cluster.Direct, "direct"}, spec{n, cluster.VLB, "vlb"})
	}
	rows := MapPoints(c, len(specs), func(i int, _ *Point) []Cell {
		s := specs[i]
		cfg := cluster.Config{
			Nodes:              s.nodes,
			ExternalGbps:       40,
			NodeForwardingGbps: 40,
			InternalLinkGbps:   10,
		}
		// Probe the analytic model at full external load, then offer 90%
		// of what it admits: the fabric should deliver essentially all of
		// it, tying the DES run to the analytic table row above.
		full := cluster.Uniform(s.nodes, float64(s.nodes)*40)
		ev, err := cluster.Evaluate(cfg, s.scheme, full)
		if err != nil {
			panic(err)
		}
		offered := 0.9 * ev.ThroughputGbps
		res, err := cluster.RunFabric(cluster.FabricConfig{
			Topo:        &cluster.FullMesh{Cluster: cfg, Scheme: s.scheme},
			Matrix:      cluster.Uniform(s.nodes, offered),
			LinkLatency: 50 * sim.Microsecond,
			Horizon:     5 * sim.Millisecond,
			Seed:        2026,
			Workers:     partitionWorkers,
		})
		if err != nil {
			panic(err)
		}
		return []Cell{
			Int(s.nodes), Label(s.name),
			Num("%.0f", res.OfferedGbps),
			Num("%.0f", ev.ThroughputGbps),
			Num("%.1f", res.DeliveredGbps),
			Num("%.2f", res.MeanHops),
			Num("%.1f", res.MeanLatency.Seconds()*1e6),
			Num("%.1f", res.MaxLatency.Seconds()*1e6),
		}
	})
	r.Rows = append(r.Rows, rows...)
	r.Note("one sim partition per node; links carry 50us lookahead; batches are 16 KiB")
	r.Note("identical output for any -p: conservative windows + ordered merge are provably serial-equivalent")
	return r
}

// leafSpineScaling runs the two-tier Clos fabric at datacenter scale: leaf
// counts from 16 to 128 with a proportional spine tier, Zipf-sized
// flows pinned to one ECMP path each, and a faulted 128-leaf variant
// (an uplink dark from the start plus a mid-run spine outage). This is
// the scale frontier of ROADMAP item 2: the 128-leaf row is a 144-
// partition world with 8,192 links.
func leafSpineScaling(c *Ctx) *Result {
	r := &Result{
		ID:     "leafspine",
		Title:  "Leaf–spine DES fabric (§7 at scale): ECMP delivery up to 128 leaves",
		Header: []string{"Leaves", "Spines", "Links", "Variant", "offered", "delivered", "hops", "mean-lat(us)", "route-drop", "node-drop"},
	}
	type spec struct {
		leaves, spines int
		faulted        bool
	}
	specs := []spec{{16, 4, false}, {64, 8, false}, {128, 16, false}, {128, 16, true}}
	rows := MapPoints(c, len(specs), func(i int, _ *Point) []Cell {
		s := specs[i]
		topo := &cluster.LeafSpine{
			Leaves: s.leaves, Spines: s.spines, Uplinks: 2,
			EdgeGbps: 40, LeafGbps: 40, SpineGbps: 160, UplinkGbps: 10,
		}
		cfg := cluster.FabricConfig{
			Topo: topo,
			// 10 Gbps of uniform ingress per leaf: inside every budget,
			// so healthy rows should deliver essentially all of it.
			Matrix:      cluster.Uniform(s.leaves, float64(s.leaves)*10),
			LinkLatency: 50 * sim.Microsecond,
			Horizon:     5 * sim.Millisecond,
			Seed:        2026,
			Workers:     partitionWorkers,
			Flows:       cluster.FlowModel{ZipfS: 1.1},
		}
		variant := "healthy"
		if s.faulted {
			variant = "faulted"
			cfg.Faults = faults.NewPlan().
				// Leaf 0's uplink slot 0 never comes up; spine 1 dies for
				// the middle fifth of the run.
				Add(faults.Event{At: 0, Kind: faults.KindLinkDown, Node: 0, Port: 0}).
				GPUOutage(s.leaves+1, 2*sim.Millisecond, 1*sim.Millisecond)
		}
		res, err := cluster.RunFabric(cfg)
		if err != nil {
			panic(err)
		}
		return []Cell{
			Int(s.leaves), Int(s.spines), Int(len(topo.Links())), Label(variant),
			Num("%.0f", res.OfferedGbps),
			Num("%.1f", res.DeliveredGbps),
			Num("%.2f", res.MeanHops),
			Num("%.1f", res.MeanLatency.Seconds()*1e6),
			Int(int(res.RouteDrops)),
			Int(int(res.NodeDrops)),
		}
	})
	r.Rows = append(r.Rows, rows...)
	r.Note("two procs per node regardless of degree: wire serialization is an arithmetic FIFO recurrence")
	r.Note("flows are Zipf(1.1)-sized and keep their RSS hash, so ECMP pins each flow to one spine path")
	r.Note("a dead spine blackholes its hash share (leaves cannot see spine state across partitions)")
	return r
}
