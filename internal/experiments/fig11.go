package experiments

import (
	"fmt"
	"sync"

	"packetshader"
	"packetshader/internal/apps"
	"packetshader/internal/core"
	"packetshader/internal/model"
	"packetshader/internal/obs"
	"packetshader/internal/openflow"
	"packetshader/internal/packet"
	"packetshader/internal/pktgen"
	"packetshader/internal/sim"
)

// appWarmup and appWindow bound the Figure 11 runs: transients (ring
// fill, chunk-pipeline priming) are excluded from measurement.
const (
	appWarmup = 12 * sim.Millisecond
	appWindow = 8 * sim.Millisecond
)

// runApp stands one router up through the library facade at full
// offered load, runs the warm-up and then the window, and returns the
// window's report. pt is the enclosing job's output context; the
// metrics dump (when enabled) goes to its private buffer so parallel
// jobs never interleave.
func runApp(pt *Point, mode core.Mode, pktSize int, app core.App, src packetshader.Source,
	warmup, window sim.Duration, opts ...packetshader.Option) packetshader.Report {
	inst := packetshader.Must(packetshader.New(app, src, append(opts,
		packetshader.WithMode(mode), packetshader.WithPacketSize(pktSize))...))
	defer inst.Close()
	mw := pt.MetricsWriter()
	var reg *obs.Registry
	if mw != nil {
		reg = obs.NewRegistry()
		inst.EnableObs(nil, reg)
	}
	inst.Run(warmup)
	rep := inst.Run(window)
	if mw != nil {
		inst.Router.ObserveStats()
		name := "cpu"
		if mode == core.ModeGPU {
			name = "gpu"
		}
		fmt.Fprintf(mw, "--- metrics %s mode=%s size=%d offered=%g ---\n",
			app.Name(), name, pktSize, inst.Router.Cfg.OfferedGbpsPerPort)
		if err := reg.Dump(mw); err == nil {
			err = obs.WriteUtil(mw, inst.Env)
		}
	}
	return rep
}

var fig11Sizes = []int{64, 128, 256, 512, 1024, 1514}

// fig11Mode maps the job-index parity to the (CPU-only, CPU+GPU) column
// pair every Figure 11 table shares.
func fig11Mode(k int) core.Mode {
	if k%2 == 1 {
		return core.ModeGPU
	}
	return core.ModeCPUOnly
}

// fig11a regenerates Figure 11(a): IPv4 forwarding throughput versus
// packet size, CPU-only versus CPU+GPU, with the full BGP table.
func fig11a(c *Ctx) *Result {
	r := &Result{
		ID:     "fig11a",
		Title:  "IPv4 forwarding throughput (Gbps)",
		Header: []string{"Packet size", "CPU-only", "CPU+GPU"},
	}
	entries, tbl := BGPFixture()
	vals := MapPoints(c, 2*len(fig11Sizes), func(k int, pt *Point) float64 {
		size := fig11Sizes[k/2]
		src := &pktgen.UDP4Source{Size: size, Seed: 11, Table: entries}
		app := &apps.IPv4Fwd{Table: tbl, NumPorts: model.NumPorts}
		return runApp(pt, fig11Mode(k), size, app, src, appWarmup, appWindow).DeliveredGbps
	})
	for i, size := range fig11Sizes {
		r.AddRow(Int(size), Num("%.1f", vals[2*i]), Num("%.1f", vals[2*i+1]))
	}
	return r
}

// fig11b regenerates Figure 11(b): IPv6 forwarding versus packet size.
func fig11b(c *Ctx) *Result {
	r := &Result{
		ID:     "fig11b",
		Title:  "IPv6 forwarding throughput (Gbps)",
		Header: []string{"Packet size", "CPU-only", "CPU+GPU"},
	}
	entries, tbl := IPv6Fixture()
	vals := MapPoints(c, 2*len(fig11Sizes), func(k int, pt *Point) float64 {
		size := fig11Sizes[k/2]
		src := &pktgen.UDP6Source{Size: size, Seed: 12, Table: entries}
		app := &apps.IPv6Fwd{Table: tbl, NumPorts: model.NumPorts}
		return runApp(pt, fig11Mode(k), size, app, src, appWarmup, appWindow).DeliveredGbps
	})
	for i, size := range fig11Sizes {
		r.AddRow(Int(size), Num("%.1f", vals[2*i]), Num("%.1f", vals[2*i+1]))
	}
	return r
}

// ofSource generates packets whose flow keys come from a bounded flow
// space, so the exact-match table can be pre-populated with exactly the
// keys the traffic will carry.
type ofSource struct {
	size         int
	flowsPerPort int
	seed         uint64
	// missEvery-th flow is NOT installed in the exact table, forcing a
	// wildcard lookup (0 disables misses).
	missEvery int

	once sync.Once
	tmpl *packet.UDP4Template
}

// flowTuple returns the deterministic 5-tuple of flow (port, idx).
func (s *ofSource) flowTuple(port, idx int) (src, dst packet.IPv4Addr, sp, dp uint16) {
	h := sim.SplitMix64(s.seed ^ (uint64(port)<<32 | uint64(idx)))
	return packet.IPv4Addr(0x0A000000 | uint32(h&0xffffff)),
		packet.IPv4Addr(0x0B000000 | uint32((h>>24)&0xffffff)),
		uint16(h>>48) | 1024, uint16(idx) | 1024
}

// Fill implements nic.FrameSource.
func (s *ofSource) Fill(b *packet.Buf, port, queue int, seq uint64) {
	h := sim.SplitMix64(s.seed ^ 0xabcd ^ (uint64(port)<<56 | uint64(queue)<<48 | seq))
	idx := int(h % uint64(s.flowsPerPort))
	src, dst, sp, dp := s.flowTuple(port, idx)
	s.once.Do(func() {
		s.tmpl = packet.NewUDP4Template(s.size,
			packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2})
	})
	b.Reset(s.tmpl.Size())
	s.tmpl.Render(b.Data, src, dst, sp, dp)
}

// FillBatch implements nic.BatchSource. The flow tuple is computed, not
// looked up, so there are no loads to overlap and one pass suffices.
func (s *ofSource) FillBatch(bufs []*packet.Buf, port, queue int, seq uint64) {
	for i, b := range bufs {
		s.Fill(b, port, queue, seq+uint64(i))
	}
}

// buildOFSwitch installs the flow space into a switch: exact entries
// for installed flows and a small wildcard table catching the rest.
func buildOFSwitch(s *ofSource, nPorts, wildcards int) *openflow.Switch {
	sw := openflow.NewSwitch(nPorts * s.flowsPerPort)
	var d packet.Decoder
	buf := make([]byte, 2048)
	for port := 0; port < nPorts; port++ {
		for idx := 0; idx < s.flowsPerPort; idx++ {
			if s.missEvery > 0 && idx%s.missEvery == 0 {
				continue // left for the wildcard table
			}
			src, dst, sp, dp := s.flowTuple(port, idx)
			frame := packet.BuildUDP4(buf, s.size,
				packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2}, src, dst, sp, dp)
			if err := d.Decode(frame); err != nil {
				panic(err)
			}
			key := openflow.ExtractKey(&d, uint16(port))
			sw.Exact.Insert(key, openflow.Action{
				Type: openflow.ActionOutput, Port: uint16(idx % nPorts)})
		}
	}
	for i := 0; i < wildcards-1; i++ {
		// Non-matching high-priority rules: every wildcard lookup scans
		// past them (the linear-search cost the GPU absorbs).
		sw.Wildcard.Insert(openflow.Rule{
			Wild:     openflow.WAll &^ openflow.WDlType,
			Key:      openflow.FlowKey{DlType: 0xFFFF},
			Priority: 1000 + i,
			Action:   openflow.Action{Type: openflow.ActionDrop},
		})
	}
	// Lowest priority: catch-all forwarding rule for exact misses.
	sw.Wildcard.Insert(openflow.Rule{
		Wild:     openflow.WAll,
		Priority: 1,
		Action:   openflow.Action{Type: openflow.ActionOutput, Port: 0},
	})
	return sw
}

// fig11c regenerates Figure 11(c): OpenFlow switch throughput with 64B
// packets versus the number of exact-match flow entries (with 32
// wildcard rules, 10% of traffic exact-missing), CPU-only vs CPU+GPU.
func fig11c(c *Ctx) *Result {
	r := &Result{
		ID:     "fig11c",
		Title:  "OpenFlow switch throughput, 64B packets (Gbps)",
		Header: []string{"Exact entries", "Wildcard", "CPU-only", "CPU+GPU"},
	}
	type ofRow struct {
		flows, wildcards, missEvery int
		seed                        uint64
	}
	var specs []ofRow
	for _, flows := range []int{1 << 10, 32 << 10, 128 << 10, 512 << 10, 1 << 20} {
		specs = append(specs, ofRow{flows, 32, 10, 77})
	}
	// Wildcard-table sweep at 32K exact entries: the wildcard-offload
	// benefit grows with the rule count.
	for _, wc := range []int{64, 256} {
		specs = append(specs, ofRow{32 << 10, wc, 4, 78})
	}
	vals := MapPoints(c, 2*len(specs), func(k int, pt *Point) float64 {
		s := specs[k/2]
		src := &ofSource{size: 64, flowsPerPort: s.flows / model.NumPorts,
			seed: s.seed, missEvery: s.missEvery}
		sw := buildOFSwitch(src, model.NumPorts, s.wildcards)
		app := apps.NewOFSwitch(sw, model.NumPorts)
		return runApp(pt, fig11Mode(k), 64, app, src, appWarmup, appWindow).DeliveredGbps
	})
	for i, s := range specs {
		r.AddRow(Int(s.flows), Int(s.wildcards),
			Num("%.1f", vals[2*i]), Num("%.1f", vals[2*i+1]))
	}
	return r
}

// fig11d regenerates Figure 11(d): IPsec gateway throughput versus
// packet size (input throughput, since ESP grows packets).
func fig11d(c *Ctx) *Result {
	r := &Result{
		ID:     "fig11d",
		Title:  "IPsec gateway throughput, input Gbps",
		Header: []string{"Packet size", "CPU-only", "CPU+GPU"},
	}
	vals := MapPoints(c, 2*len(fig11Sizes), func(k int, pt *Point) float64 {
		size := fig11Sizes[k/2]
		src := &pktgen.UDP4Source{Size: size, Seed: 13}
		app := apps.NewIPsecGW(model.NumPorts)
		// §5.4: concurrent copy and execution is enabled selectively
		// for IPsec (payload-heavy transfers overlap the kernel).
		// ESP-grown packets take longer to fill the RX rings, so the
		// IPsec runs use a longer warmup before measuring.
		return runApp(pt, fig11Mode(k), size, app, src, 20*sim.Millisecond, 10*sim.Millisecond,
			packetshader.WithStreams(4)).InputGbps
	})
	for i, size := range fig11Sizes {
		r.AddRow(Int(size), Num("%.1f", vals[2*i]), Num("%.1f", vals[2*i+1]))
	}
	r.Note("concurrent copy & execution enabled (4 streams), as §5.4 prescribes for IPsec")
	return r
}
