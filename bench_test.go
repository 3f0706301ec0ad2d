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

// BenchmarkFig5Batch regenerates Figure 5 (the batch-size sweep of the
// packet I/O engine) on one worker, so the number does not depend on
// the host's core count. It and the benchmarks below are what
// scripts/profile.sh and the check.sh smoke run; every other table and
// figure is regenerated by cmd/psbench, and host performance is
// measured by bench/ (BENCHMARK.json).
func BenchmarkFig5Batch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.NewRunner(1).Run(io.Discard, "fig5"); err != nil {
			b.Fatal(err)
		}
	}
}

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

// BenchmarkRouterIPsec1514B is bench/'s ipsec-1514B workload as a
// testing.B target, the way RouterIPv4Full64B mirrors ipv4-64B: the
// IPsec gateway in CPU+GPU mode with four streams, 1514 B frames, 2 ms
// of warm-up before the timer. Nearly all of its host time is the
// shading step's real AES-CTR and HMAC-SHA1.
func BenchmarkRouterIPsec1514B(b *testing.B) {
	inst, err := packetshader.IPsec(1, packetshader.WithMode(packetshader.ModeGPU),
		packetshader.WithPacketSize(1514), packetshader.WithStreams(4))
	if err != nil {
		b.Fatal(err)
	}
	inst.Run(2 * packetshader.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Run(1 * packetshader.Millisecond)
	}
}

// BenchmarkFabricWorkers measures the conservative-parallel cluster
// fabric (16 nodes, VLB, near-admissible load, 50 ms of virtual time)
// at 1, 2 and 8 partition workers. The result bytes are identical for
// every worker count — CI enforces that — so the ns/op spread is what
// fanning a window out costs. Measured on a 2-CPU host (-cpu 2, six
// runs each): 31–50 ms at p1, 68–88 ms at p2, 73–88 ms at p8 — a
// partition's share of a window is less work than one goroutine
// hand-off, so more workers have only ever been slower.
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
// serial advance (20e6 sim-ns/op). Every wake-up in it is a link
// delivery or a node's generator step (the forwarding budget is
// arithmetic in arrive), which makes ns/op the price of the engine's
// event store and window barriers plus the per-batch routing;
// FabricWorkers/p1 is a 16-node full mesh and not what bench/ runs.
// Back-to-back runs here keep the collector busy, so a profile shows
// a GC share (write barriers, object lookup) that bench/ does not
// have: its timed window starts right after a forced collection and
// allocates under 2 MB against a 32 MiB live heap, and its
// go.gc_cycles_per_sim_ms reads 0 on fabric-ls64.
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
