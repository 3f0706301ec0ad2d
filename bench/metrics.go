package main

import (
	"math"
	"sort"
)

// metricDef names one metric of the benchmark. The two lists below are
// the single source of truth inside the program; BENCHMARK.json at the
// root of the repository repeats them for the driver, and bench_test.go
// fails when the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the base median a later change may lose; 0 for per-layer metrics
	Clock  string  // "host" or "sim": which clock the number is on
	What   string
}

// Units say which clock a number is on: anything with "sim_" in it is
// virtual time or a rate over virtual time and must not move under a
// host-speed change.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "host", "median wall time from nothing to a warmed-up instance (construction + warm-up W), x calRefMs / median host.cal_mem_ms"},
	{"wall_ns_per_sim_ns", "ns/sim_ns", "lower", 0.25, "host", "sum over the window's slices of the fastest pass of each slice / T, x calRefMs / fastest host.cal_mem_ms"},
	{"allocs_per_sim_ms", "1/sim_ms", "lower", 0.01, "host", "median Mallocs delta over the window / T"},
	{"alloc_kb_per_sim_ms", "KiB/sim_ms", "lower", 0.02, "host", "median TotalAlloc delta over the window / T"},
	{"live_heap_mb", "MiB", "lower", 0.05, "host", "median HeapAlloc after a forced GC at the end of the window, the harness's 32 MiB calibration table included"},
	{"sim_delivered_gbps", "sim_Gbps", "higher", 0.02, "sim", "delivered throughput of the timed window, bit-equal across passes"},
	{"sim_mean_latency_us", "sim_us", "lower", 0.08, "sim", "mean latency of the timed window, bit-equal across passes"},
}

var perLayer = []metricDef{
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Clock: "host", What: "traced vs untraced wall_ns_per_sim_ns, interleaved passes"},

	{Name: "pktgen.fill_ns", Unit: "ns/pkt", Better: "lower", Clock: "host", What: "in situ: Source.Fill, timed 1 in 64, counted exactly"},
	{Name: "pktgen.fill_share_pct", Unit: "%", Better: "lower", Clock: "host", What: "share of the window's wall time"},

	{Name: "packet.decode_ns", Unit: "ns/frame", Better: "lower", Clock: "host", What: "micro: Decoder.DecodeFast over 4096 generated frames"},
	{Name: "packet.render_ns", Unit: "ns/frame", Better: "lower", Clock: "host", What: "micro: UDP4Template.Render"},

	{Name: "apps.preshade_ns", Unit: "ns/pkt", Better: "lower", Clock: "host", What: "in situ: core.App.PreShade spans / packets"},
	{Name: "apps.kernel_ns", Unit: "ns/pkt", Better: "lower", Clock: "host", What: "in situ: core.App.RunKernel (+CPUWork) spans / packets"},
	{Name: "apps.postshade_ns", Unit: "ns/pkt", Better: "lower", Clock: "host", What: "in situ: core.App.PostShade spans / packets"},
	{Name: "apps.share_pct", Unit: "%", Better: "lower", Clock: "host", What: "share of the window's wall time"},

	{Name: "lookup4.lookup_ns", Unit: "ns/addr", Better: "lower", Clock: "host", What: "micro: Table.LookupBatch on generated destinations, full BGP table"},
	{Name: "lookup4.update_ns", Unit: "ns/update", Better: "lower", Clock: "host", What: "micro: DynamicTable.Remove + Insert over the churn victims"},
	{Name: "lookup4.cells_per_update", Unit: "count", Better: "lower", Clock: "sim", What: "DIR-24-8 cells patched per route update in the churn script"},
	{Name: "lookup4.build_s", Unit: "s", Better: "lower", Clock: "host", What: "micro: GenerateBGPTable + Build of the full table"},

	{Name: "ipsec.encap_ns_per_byte", Unit: "ns/B", Better: "lower", Clock: "host", What: "in situ: kernel spans / plaintext bytes"},
	{Name: "ipsec.aes_ns_per_byte", Unit: "ns/B", Better: "lower", Clock: "host", What: "micro: AES.CTR over 16 KiB"},
	{Name: "ipsec.hmac_ns_per_byte", Unit: "ns/B", Better: "lower", Clock: "host", What: "micro: HMACSHA1.ICV over 16 KiB"},
	{Name: "ipsec.encap64_ns", Unit: "ns/pkt", Better: "lower", Clock: "host", What: "micro: SA.Encap of a 50-byte inner packet (fixed cost)"},

	{Name: "ctrl.apply_ns", Unit: "ns/route", Better: "lower", Clock: "host", What: "in situ: FIBApplier.ApplyRoutes spans / routes"},
	{Name: "ctrl.apply_share_pct", Unit: "%", Better: "lower", Clock: "host", What: "share of the window's wall time"},
	{Name: "ctrl.churn_cost_ns", Unit: "ns/route", Better: "lower", Clock: "host", What: "(ipv4-churn - ipv4-64B window wall) / routes applied"},
	{Name: "ctrl.routes_per_sim_ms", Unit: "1/sim_ms", Better: "higher", Clock: "sim", What: "route updates applied per simulated ms"},
	{Name: "ctrl.errors", Unit: "count", Better: "lower", Clock: "sim", What: "failed control commands"},

	{Name: "nic.fetch_ns", Unit: "ns/pkt", Better: "lower", Clock: "host", What: "micro: RxQueue.Fetch(64) with a no-op source at 64 B line rate"},
	{Name: "nic.transmit_ns", Unit: "ns/pkt", Better: "lower", Clock: "host", What: "micro: TxPort.Transmit of 64-packet batches"},
	{Name: "nic.toeplitz_ns", Unit: "ns/hash", Better: "lower", Clock: "host", What: "micro: RSSHashIPv4"},
	{Name: "nic.rx_pkts", Unit: "1/sim_ms", Better: "higher", Clock: "sim", What: "packets fetched from the RX rings"},
	{Name: "nic.rx_drop_pkts", Unit: "1/sim_ms", Better: "lower", Clock: "sim", What: "packets dropped at the RX rings"},
	{Name: "nic.tx_pkts", Unit: "1/sim_ms", Better: "higher", Clock: "sim", What: "packets transmitted"},
	{Name: "nic.tx_drop_pkts", Unit: "1/sim_ms", Better: "lower", Clock: "sim", What: "packets dropped at the TX rings"},

	{Name: "pcie.ioh_ns", Unit: "ns/call", Better: "lower", Clock: "host", What: "micro: IOH.ScheduleUp + ScheduleDown"},
	{Name: "pcie.ioh_up_util_pct", Unit: "sim_%", Better: "lower", Clock: "sim", What: "IOH up-engine busy time / T, mean over hubs"},
	{Name: "pcie.ioh_down_util_pct", Unit: "sim_%", Better: "lower", Clock: "sim", What: "IOH down-engine busy time / T, mean over hubs"},

	{Name: "gpu.launch_ns", Unit: "ns/launch", Better: "lower", Clock: "host", What: "micro: Device.Launch with an empty kernel"},
	{Name: "gpu.launches_per_sim_ms", Unit: "1/sim_ms", Better: "lower", Clock: "sim", What: "core.Stats.GPULaunches"},
	{Name: "gpu.exec_util_pct", Unit: "sim_%", Better: "lower", Clock: "sim", What: "GPU exec-engine busy time / T, mean over devices"},

	{Name: "core.residual_ns", Unit: "ns/pkt", Better: "lower", Clock: "host", What: "window self time (sim + hw/* + pktio + core) / packets"},
	{Name: "core.residual_share_pct", Unit: "%", Better: "lower", Clock: "host", What: "share of the window's wall time"},
	{Name: "core.chunks_per_sim_ms", Unit: "1/sim_ms", Better: "lower", Clock: "sim", What: "chunks through either path"},
	{Name: "core.pkts_per_chunk", Unit: "count", Better: "higher", Clock: "sim", What: "packets / chunks"},
	{Name: "core.chunk_reuse_ratio", Unit: "ratio", Better: "higher", Clock: "sim", What: "ChunkReuses / chunks: useful / attempts"},
	{Name: "core.fallback_chunks", Unit: "count", Better: "lower", Clock: "sim", What: "chunks re-dispatched to the CPU after a GPU stall"},

	{Name: "sim.event_ns", Unit: "ns/event", Better: "lower", Clock: "host", What: "micro: Env.After callbacks at spread delays, then Run"},
	{Name: "sim.event_allocs", Unit: "1/event", Better: "lower", Clock: "host", What: "allocations per event in the same run"},
	{Name: "sim.sleep_ns", Unit: "ns/sleep", Better: "lower", Clock: "host", What: "micro: two procs alternating Sleep (goroutine hand-off)"},
	{Name: "sim.queue_ns", Unit: "ns/pair", Better: "lower", Clock: "host", What: "micro: Queue Put/Get pair across two procs"},
	{Name: "sim.server_ns", Unit: "ns/call", Better: "lower", Clock: "host", What: "micro: Server.Schedule"},
	{Name: "sim.link_ns", Unit: "ns/msg", Better: "lower", Clock: "host", What: "micro: Link.SendAt + delivery across two partitions"},
	{Name: "sim.window_ns", Unit: "ns/window", Better: "lower", Clock: "host", What: "micro: one World.Run window over 72 partitions, one of them ticking"},

	{Name: "cluster.batch_ns", Unit: "ns/batch", Better: "lower", Clock: "host", What: "window wall / batches generated"},
	{Name: "cluster.forwards_per_batch", Unit: "ratio", Better: "lower", Clock: "sim", What: "forwarding operations / batches"},
	{Name: "cluster.delivered_pct", Unit: "sim_%", Better: "higher", Clock: "sim", What: "batches delivered / generated"},
	{Name: "cluster.route_drops", Unit: "count", Better: "lower", Clock: "sim", What: "batches blackholed"},
	{Name: "cluster.node_drops", Unit: "count", Better: "lower", Clock: "sim", What: "batches consumed by a dead node"},
	{Name: "cluster.par_speedup", Unit: "ratio", Better: "higher", Clock: "host", What: "fabric-ls64 / fabric-ls64-par wall_ns_per_sim_ns, interleaved passes"},

	{Name: "obs.on_overhead_pct", Unit: "%", Better: "lower", Clock: "host", What: "ipv4-64B window with EnableObs(tracer, registry) vs without"},
	{Name: "model.fidelity_err_pct", Unit: "sim_%", Better: "lower", Clock: "sim", What: "|simulated - paper| / paper at the experiment's own 12 ms + 8 ms"},

	{Name: "host.cal_alu_ms", Unit: "ms", Better: "lower", Clock: "host", What: "fixed xorshift-multiply loop, median over rounds"},
	{Name: "host.cal_mem_ms", Unit: "ms", Better: "lower", Clock: "host", What: "2^20 random reads in a 32 MiB table, median over the run's samples"},
	{Name: "host.nproc", Unit: "count", Better: "higher", Clock: "host", What: "runtime.NumCPU"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher", Clock: "host", What: "1, or 2 on fabric-ls64-par (never more than nproc)"},
	{Name: "go.gc_cycles_per_sim_ms", Unit: "1/sim_ms", Better: "lower", Clock: "host", What: "MemStats.NumGC delta over the window / T"},
}

// metricValue is one measured number as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
