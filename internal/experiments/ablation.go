package experiments

import (
	"packetshader"
	"packetshader/internal/core"
	"packetshader/internal/pktio"
	"packetshader/internal/sim"
)

// ablation quantifies the §4.3-§5.4 design choices one at a time on the
// IPv6 forwarding workload (64B, full load): the huge packet buffer vs
// the skb path, software prefetch, cache-line alignment + per-queue
// counters, chunk pipelining, gather/scatter, concurrent copy and
// execution, and opportunistic offloading (latency at light load).
func ablation(c *Ctx) *Result {
	r := &Result{
		ID:     "ablation",
		Title:  "Design-choice ablations (IPv6 forwarding, 64B)",
		Header: []string{"Configuration", "Gbps", "vs full"},
	}
	// Every row is the IPv6 forwarder on an instance of its own
	// (ipv6Run), differing only in its option. The packet-I/O rows reach
	// below the With* options: an Option literal over the exported
	// Config sets the pktio field directly.
	configs := []struct {
		name string
		opt  packetshader.Option
	}{
		{"full PacketShader (CPU+GPU)", packetshader.WithMode(core.ModeGPU)},
		{"- gather/scatter (1 chunk/launch)", packetshader.WithGatherMax(1)},
		{"- chunk pipelining", packetshader.WithoutPipelining()},
		{"+ concurrent copy & execution (4 streams)", packetshader.WithStreams(4)},
		{"- software prefetch", func(c *packetshader.Config) { c.IO.Prefetch = false }},
		{"- queue alignment & per-queue counters", func(c *packetshader.Config) {
			c.IO.AlignQueueData = false
			c.IO.PerQueueCounters = false
		}},
		{"skb buffers instead of huge buffers", func(c *packetshader.Config) { c.IO.Mode = pktio.ModeSkb }},
		{"CPU-only", packetshader.WithMode(core.ModeCPUOnly)},
	}
	// Jobs 0..len(configs)-1 are the throughput ablations. Opportunistic
	// offloading is a latency feature: the final two jobs measure mean
	// RTT at light load without it (always-offload), then with it.
	light := packetshader.WithOfferedGbps(0.25)
	vals := MapPoints(c, len(configs)+2, func(i int, _ *Point) float64 {
		switch {
		case i < len(configs):
			return ipv6Run(31, 4*sim.Millisecond, configs[i].opt).DeliveredGbps
		case i == len(configs):
			return ipv6Run(31, 6*sim.Millisecond, light).MeanLatencyUs
		default:
			return ipv6Run(31, 6*sim.Millisecond, light, packetshader.WithOpportunisticOffload()).MeanLatencyUs
		}
	})
	full := vals[0]
	for i, cfg := range configs {
		r.AddRow(Label(cfg.name), Num("%.1f", vals[i]), Num("%+.0f%%", (vals[i]/full-1)*100))
	}
	r.Note("latency at 2 Gbps offered: GPU always-offload %.0f us vs opportunistic %.0f us (§7)",
		vals[len(configs)], vals[len(configs)+1])
	return r
}
