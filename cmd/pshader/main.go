// Command pshader runs the PacketShader router simulation with one of
// the paper's four applications and prints throughput, latency, and
// framework statistics. With -ctrl it runs as pshaderd: a live router
// under deterministic script control — the script's route updates, knob
// retunes, port admin, and stats/metrics snapshots execute on the
// virtual clock, so replaying the same script with the same seed
// produces byte-identical output.
//
// Examples:
//
//	pshader -app ipv4 -mode gpu -size 64 -duration 20ms
//	pshader -app ipsec -mode cpu -size 1514 -offered 5
//	pshader -app openflow -flows 32768 -wildcards 32
//	pshader -app ipv6 -mode gpu -opportunistic -offered 1
//	pshader -app ipv4 -mode gpu -trace trace.json -metrics
//	pshader -app ipv4 -fib dynamic -ctrl scripts/pshaderd-demo.psc
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"packetshader"
	"packetshader/internal/ctrl"
	"packetshader/internal/model"
	"packetshader/internal/obs"
	"packetshader/internal/openflow"
	"packetshader/internal/packet"
	"packetshader/internal/pcap"
	"packetshader/internal/pktgen"
	"packetshader/internal/sim"
)

func main() {
	var (
		appName  = flag.String("app", "ipv4", "application: ipv4, ipv6, openflow, ipsec")
		mode     = flag.String("mode", "gpu", "cpu (CPU-only) or gpu (CPU+GPU)")
		size     = flag.Int("size", 64, "packet size in bytes (64-1514)")
		offered  = flag.Float64("offered", 10, "offered load per port (Gbps)")
		duration = flag.Duration("duration", 20*time.Millisecond, "simulated duration")
		warmup   = flag.Duration("warmup", 10*time.Millisecond, "warmup excluded from measurement")
		prefixes = flag.Int("prefixes", 100000, "routing-table prefixes (ipv4/ipv6)")
		flows    = flag.Int("flows", 32768, "exact-match flows (openflow)")
		wild     = flag.Int("wildcards", 32, "wildcard rules (openflow)")
		streams  = flag.Int("streams", 1, "CUDA streams (concurrent copy & execution)")
		opp      = flag.Bool("opportunistic", false, "opportunistic offloading (§7)")
		seed     = flag.Int64("seed", 42, "workload seed")
		fibMode  = flag.String("fib", "static", "IPv4 route-update strategy: static, dynamic, rebuild")
		ctrlPath = flag.String("ctrl", "", "run as pshaderd: execute this .psc control script on the virtual clock")
		pcapOut  = flag.String("pcap", "", "capture transmitted packets to this pcap file")
		pcapN    = flag.Uint64("pcap-limit", 1000, "max packets to capture")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto)")
		metrics  = flag.Bool("metrics", false, "dump counters, latency histograms, and resource occupancy")
	)
	flag.Parse()

	opts := []packetshader.Option{
		packetshader.WithPacketSize(*size),
		packetshader.WithOfferedGbps(*offered),
		packetshader.WithStreams(*streams),
	}
	switch *mode {
	case "cpu":
		opts = append(opts, packetshader.WithMode(packetshader.ModeCPUOnly))
	case "gpu":
		opts = append(opts, packetshader.WithMode(packetshader.ModeGPU))
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if *opp {
		opts = append(opts, packetshader.WithOpportunisticOffload())
	}
	switch *fibMode {
	case "static":
	case "dynamic":
		opts = append(opts, packetshader.WithFIBUpdate(packetshader.FIBDynamic))
	case "rebuild":
		opts = append(opts, packetshader.WithFIBUpdate(packetshader.FIBRebuild))
	default:
		fmt.Fprintf(os.Stderr, "unknown fib mode %q\n", *fibMode)
		os.Exit(2)
	}

	var script *ctrl.Script
	if *ctrlPath != "" {
		f, err := os.Open(*ctrlPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		script, err = ctrl.ParseScript(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *ctrlPath, err)
			os.Exit(1)
		}
	}

	fmt.Fprintf(os.Stderr, "building %s tables...\n", *appName)
	var (
		inst *packetshader.Instance
		err  error
	)
	switch *appName {
	case "ipv4":
		inst, err = packetshader.IPv4(*prefixes, *seed, opts...)
	case "ipv6":
		inst, err = packetshader.IPv6(*prefixes, *seed, opts...)
	case "openflow":
		sw := openflow.NewSwitch(*flows)
		// A default-forward rule set catches everything; exact entries
		// would be installed by a controller.
		for i := 0; i < *wild; i++ {
			sw.Wildcard.Insert(openflow.Rule{
				Wild:     openflow.WAll,
				Priority: i,
				Action:   openflow.Action{Type: openflow.ActionOutput, Port: uint16(i % model.NumPorts)},
			})
		}
		src := &pktgen.UDP4Source{Size: *size, Seed: uint64(*seed)}
		inst, err = packetshader.OpenFlowSwitch(sw, src, opts...)
	case "ipsec":
		inst, err = packetshader.IPsec(*seed, opts...)
	default:
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *appName)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer inst.Close()

	var (
		tracer  *obs.Tracer
		sampler *obs.ServerSampler
		reg     *obs.Registry
	)
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}
	if *metrics {
		reg = obs.NewRegistry()
	}
	if tracer != nil || reg != nil {
		// The sampler turns every sim.Server reservation (PCIe engines,
		// GPU copy/exec, NIC serializers) into occupancy spans/totals.
		sampler = obs.NewServerSampler(tracer)
		inst.Env.SetHooks(sampler)
		inst.EnableObs(tracer, reg)
	}
	var tap *pcap.Tap
	if *pcapOut != "" {
		f, err := os.Create(*pcapOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		tap = &pcap.Tap{W: pcap.NewWriter(f, 0), Limit: *pcapN}
		inst.TapTx(func(b *packet.Buf, at sim.Time) { tap.Observe(b, at) })
	}
	var ctl *ctrl.Controller
	if script != nil {
		// Attach before the run starts: script offsets count from
		// simulated time zero, warmup included.
		ctl, err = inst.Control(script, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	start := time.Now()
	inst.Run(sim.DurationFromSeconds(warmup.Seconds()))
	report := inst.Run(sim.DurationFromSeconds(duration.Seconds()))
	wall := time.Since(start)
	// Wall time goes to stderr: stdout stays a pure function of the
	// configuration, so replaying a run diffs byte-identically.
	fmt.Fprintf(os.Stderr, "simulated %v (+%v warmup) in %v wall time\n",
		duration, warmup, wall.Round(time.Millisecond))

	router := inst.Router
	sink := inst.Sink
	rx, rxDropped, tx, txDropped := router.Engine.AggregateStats()
	fmt.Printf("PacketShader %s / %s mode, %dB packets, %.1f Gbps/port offered\n",
		router.App.Name(), *mode, *size, *offered)
	fmt.Printf("  simulated       %v (+%v warmup)\n", duration, warmup)
	fmt.Printf("  throughput      %.2f Gbps delivered (%.2f Gbps input)\n",
		report.DeliveredGbps, report.InputGbps)
	fmt.Printf("  packets         rx=%d rx_dropped=%d tx=%d tx_dropped=%d app_drops=%d\n",
		rx, rxDropped, tx, txDropped, router.Stats.Drops)
	fmt.Printf("  chunks          cpu=%d gpu=%d launches=%d\n",
		router.Stats.ChunksCPU, router.Stats.ChunksGPU, router.Stats.GPULaunches)
	if sink.Count > 0 {
		fmt.Printf("  latency (us)    mean=%.0f min=%.0f p50=%.0f p99=%.0f max=%.0f\n",
			sink.MeanMicros(), sink.MinMicros(),
			sink.PercentileMicros(0.5), sink.PercentileMicros(0.99), sink.MaxMicros())
	}
	for i, dev := range router.Devices {
		fmt.Printf("  gpu%d            launches=%d threads=%d\n", i, dev.Launches, dev.ThreadsRun)
	}
	if ctl != nil {
		fmt.Printf("  ctrl            commands=%d route_updates=%d cells_touched=%d errors=%d\n",
			ctl.Fired(), ctl.RoutesApplied(), ctl.CellsTouched(), len(ctl.Errors()))
		for _, e := range ctl.Errors() {
			fmt.Fprintf(os.Stderr, "ctrl error: %s\n", e)
		}
	}
	if tap != nil {
		fmt.Printf("  pcap            %d packets\n", tap.W.Packets)
		fmt.Fprintf(os.Stderr, "pcap written to %s\n", *pcapOut)
		if tap.Err != nil {
			fmt.Fprintf(os.Stderr, "pcap error: %v\n", tap.Err)
		}
	}
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := tracer.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// The event count is simulation output; the destination path is
		// host detail and goes to stderr so stdout replays byte-identically
		// regardless of where the trace file lands.
		fmt.Printf("  trace           %d events\n", tracer.Events())
		fmt.Fprintf(os.Stderr, "trace written to %s (open at https://ui.perfetto.dev)\n", *traceOut)
	}
	if reg != nil {
		router.ObserveStats()
		fmt.Printf("metrics:\n")
		if err := reg.Dump(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := sampler.WriteReport(os.Stdout, inst.Env.Now()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
