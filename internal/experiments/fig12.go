package experiments

import (
	"packetshader"
	"packetshader/internal/apps"
	"packetshader/internal/core"
	"packetshader/internal/model"
	"packetshader/internal/pktgen"
	"packetshader/internal/sim"
)

// fig12 regenerates Figure 12: average round-trip latency of IPv6
// forwarding (64B packets) versus the offered input traffic level, for
// (i) CPU-only without batching, (ii) CPU-only with batching, and
// (iii) CPU+GPU with batching and parallelization.
func fig12(c *Ctx) *Result {
	r := &Result{
		ID:     "fig12",
		Title:  "Average round-trip latency, IPv6 forwarding 64B (us)",
		Header: []string{"Offered Gbps", "CPU no-batch", "CPU batch", "CPU+GPU"},
	}
	measure := func(offered float64, opts ...packetshader.Option) float64 {
		return ipv6Run(21, 6*sim.Millisecond, append(opts,
			packetshader.WithOfferedGbps(offered/float64(model.NumPorts)))...).MeanLatencyUs
	}

	offeredLevels := []float64{1, 4, 8, 12, 16, 20, 24, 28}
	// One job per (offered load, variant) cell — three independent
	// router worlds per row.
	vals := MapPoints(c, 3*len(offeredLevels), func(k int, _ *Point) float64 {
		offered := offeredLevels[k/3]
		switch k % 3 {
		case 0:
			// A one-packet chunk is a one-packet fetch: no batching
			// anywhere on the path.
			return measure(offered, packetshader.WithMode(core.ModeCPUOnly), packetshader.WithChunkCap(1))
		case 1:
			return measure(offered, packetshader.WithMode(core.ModeCPUOnly))
		default:
			return measure(offered)
		}
	})
	for i, offered := range offeredLevels {
		r.AddRow(Num("%.0f", offered),
			Num("%.0f", vals[3*i]), Num("%.0f", vals[3*i+1]), Num("%.0f", vals[3*i+2]))
	}
	r.Note("batching lowers latency (less queueing); the GPU path adds a bounded overhead")
	r.Note("elevated latency at the lightest load comes from NIC interrupt moderation (§6.4)")
	return r
}

// ipv6Run stands the IPv6 forwarder (64B packets over the shared
// 200k-prefix table) up through the facade with opts, runs it for d from
// a cold start and returns the report: one cell of Figure 12 or of the
// ablation table.
func ipv6Run(seed uint64, d sim.Duration, opts ...packetshader.Option) packetshader.Report {
	entries, tbl := IPv6Fixture()
	inst := packetshader.Must(packetshader.New(
		&apps.IPv6Fwd{Table: tbl, NumPorts: model.NumPorts},
		&pktgen.UDP6Source{Size: 64, Seed: seed, Table: entries}, opts...))
	defer inst.Close()
	return inst.Run(d)
}
