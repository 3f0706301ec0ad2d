package packetshader_test

import (
	"fmt"
	"io"
	"testing"

	"packetshader"
	"packetshader/internal/cluster"
	"packetshader/internal/experiments"
	"packetshader/internal/sim"
)

// One benchmark per table/figure of the paper: each iteration regenerates
// the full table or figure on the simulated testbed. Run a single
// experiment with e.g.
//
//	go test -bench=BenchmarkFig11aIPv4 -benchtime=1x
//
// and inspect the regenerated rows with cmd/psbench.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	// Pinned to one worker so the numbers stay an apples-to-apples
	// measure of the engine hot path across PRs, independent of how many
	// cores the bench host happens to have.
	for i := 0; i < b.N; i++ {
		if err := experiments.NewRunner(1).Run(io.Discard, id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1PCIeTransfer regenerates Table 1 (PCIe transfer rates).
func BenchmarkTable1PCIeTransfer(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkKernelLaunch regenerates the §2.2 launch-latency numbers.
func BenchmarkKernelLaunch(b *testing.B) { benchExperiment(b, "launch") }

// BenchmarkFig2IPv6Lookup regenerates Figure 2 (lookup throughput vs
// batch size, CPU vs GPU).
func BenchmarkFig2IPv6Lookup(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkTable3RxBreakdown regenerates Table 3 (skb RX cycle bins).
func BenchmarkTable3RxBreakdown(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig5Batch regenerates Figure 5 (batch-size sweep).
func BenchmarkFig5Batch(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6PacketIO regenerates Figure 6 (engine RX/TX/forwarding).
func BenchmarkFig6PacketIO(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkNUMAPlacement regenerates the §4.5 NUMA comparison.
func BenchmarkNUMAPlacement(b *testing.B) { benchExperiment(b, "numa") }

// BenchmarkFig11aIPv4 regenerates Figure 11(a).
func BenchmarkFig11aIPv4(b *testing.B) { benchExperiment(b, "fig11a") }

// BenchmarkFig11bIPv6 regenerates Figure 11(b).
func BenchmarkFig11bIPv6(b *testing.B) { benchExperiment(b, "fig11b") }

// BenchmarkFig11cOpenFlow regenerates Figure 11(c).
func BenchmarkFig11cOpenFlow(b *testing.B) { benchExperiment(b, "fig11c") }

// BenchmarkFig11dIPsec regenerates Figure 11(d).
func BenchmarkFig11dIPsec(b *testing.B) { benchExperiment(b, "fig11d") }

// BenchmarkFig12Latency regenerates Figure 12 (latency vs offered load).
func BenchmarkFig12Latency(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkAblationDesignChoices regenerates the §4-§5 ablations.
func BenchmarkAblationDesignChoices(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkClusterVLB evaluates the §7 horizontal-scaling extension.
func BenchmarkClusterVLB(b *testing.B) { benchExperiment(b, "cluster") }

// BenchmarkRouterIPv4GPU measures a single CPU+GPU IPv4 run through the
// public API (Gbps is reported via the experiment tables; this measures
// simulation cost per virtual millisecond).
func BenchmarkRouterIPv4GPU(b *testing.B) {
	inst, err := packetshader.IPv4(20000, 1, packetshader.WithMode(packetshader.ModeGPU))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Run(1 * packetshader.Millisecond)
	}
}

// BenchmarkRouterIPv4Full64B is bench/'s ipv4-64B workload as a
// testing.B target, so `make profile` sees what the repository's
// benchmark sees: the full 282,797-prefix table (far larger than L2,
// so the generator's table gather and the first touch of each frame
// miss the cache; RouterIPv4GPU's 20,000 prefixes fit and hide both),
// 64 B frames at 10 Gbps per port, 4 ms of warm-up before the timer.
func BenchmarkRouterIPv4Full64B(b *testing.B) {
	inst, err := packetshader.IPv4(282797, 1, packetshader.WithMode(packetshader.ModeGPU),
		packetshader.WithPacketSize(64), packetshader.WithOfferedGbps(10))
	if err != nil {
		b.Fatal(err)
	}
	inst.Run(4 * packetshader.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Run(1 * packetshader.Millisecond)
	}
}

// BenchmarkFabricWorkers measures the conservative-parallel cluster
// fabric (16 nodes, VLB, near-admissible load, 50 ms of virtual time)
// at 1, 2 and 8 partition workers. The result bytes are identical for
// every worker count — CI enforces that — so the ns/op spread is the
// pure core-scaling curve of the windowed world scheduler. On a
// single-core host the curve is flat; BENCH_PR10.json records it with
// the host's core count either way.
func BenchmarkFabricWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("p%d", workers), func(b *testing.B) {
			cfg := cluster.FabricConfig{
				Topo: &cluster.FullMesh{
					Cluster: cluster.Config{
						Nodes:              16,
						ExternalGbps:       40,
						NodeForwardingGbps: 40,
						InternalLinkGbps:   10,
					},
					Scheme: cluster.VLB,
				},
				Matrix:      cluster.Uniform(16, 200),
				LinkLatency: 50 * sim.Microsecond,
				Horizon:     50 * sim.Millisecond,
				Seed:        7,
				Workers:     workers,
			}
			for i := 0; i < b.N; i++ {
				if _, err := cluster.RunFabric(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFabricLS64 is bench/'s fabric-ls64 workload as a go test
// benchmark, so `make profile` can see where its host time goes: a
// 64-leaf × 8-spine leaf–spine with 2 uplinks per pair, 640 Gbps of
// uniform load in Zipf 1.1 flows, 50 µs links, 20 ms of virtual time,
// serial advance (20e6 sim-ns/op). Every wake-up in it is a node's
// generator or forwarder task, which makes ns/op the price of the
// engine's process machinery; FabricWorkers/p1 is a 16-node full mesh
// and not what bench/ runs.
func BenchmarkFabricLS64(b *testing.B) {
	cfg := cluster.FabricConfig{
		Topo: &cluster.LeafSpine{
			Leaves: 64, Spines: 8, Uplinks: 2,
			EdgeGbps: 10, LeafGbps: 40, SpineGbps: 160, UplinkGbps: 10,
		},
		Matrix:      cluster.Uniform(64, 640),
		LinkLatency: 50 * sim.Microsecond,
		Horizon:     20 * sim.Millisecond,
		Seed:        1,
		Workers:     1,
		Flows:       cluster.FlowModel{ZipfS: 1.1},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.RunFabric(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeafSpineScale measures the leaf–spine fabric's host cost as
// the node count grows: 16, 64 and 128 leaves with a proportional spine
// tier, Zipf flows, 5 ms of virtual time, serial partition advance.
// This is the scale-frontier curve of the event heap and the dirty-link
// window barrier — the 128-leaf row is a 144-partition world with 8,192
// links, the most Envs and links the repository runs (peak 61 pending
// events per Env), which is why `make profile` profiles it.
func BenchmarkLeafSpineScale(b *testing.B) {
	for _, s := range []struct{ leaves, spines int }{{16, 4}, {64, 8}, {128, 16}} {
		b.Run(fmt.Sprintf("l%d", s.leaves), func(b *testing.B) {
			cfg := cluster.FabricConfig{
				Topo: &cluster.LeafSpine{
					Leaves: s.leaves, Spines: s.spines, Uplinks: 2,
					EdgeGbps: 40, LeafGbps: 40, SpineGbps: 160, UplinkGbps: 10,
				},
				Matrix:      cluster.Uniform(s.leaves, float64(s.leaves)*10),
				LinkLatency: 50 * sim.Microsecond,
				Horizon:     5 * sim.Millisecond,
				Seed:        2026,
				Workers:     1,
				Flows:       cluster.FlowModel{ZipfS: 1.1},
			}
			for i := 0; i < b.N; i++ {
				if _, err := cluster.RunFabric(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
