package main

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"packetshader"
	"packetshader/internal/apps"
	"packetshader/internal/cluster"
	"packetshader/internal/core"
	"packetshader/internal/ctrl"
	"packetshader/internal/hw/nic"
	"packetshader/internal/ipsec"
	"packetshader/internal/model"
	"packetshader/internal/packet"
	"packetshader/internal/pktgen"
	"packetshader/internal/route"
	"packetshader/internal/sim"

	lookupv4 "packetshader/internal/lookup/ipv4"
)

// sizes are the input sizes of one benchmark run. full is what
// BENCHMARK.json measures; tiny lets bench_test.go run every workload
// in well under a second.
type sizes struct {
	prefixes       int
	leaves, spines int
	div            sim.Duration // divides every W and T
	microDiv       int          // divides the micro-drivers' operation counts
}

var (
	full = sizes{prefixes: route.BGPTableSize, leaves: 64, spines: 8, div: 1, microDiv: 1}
	tiny = sizes{prefixes: 1000, leaves: 8, spines: 2, div: 20, microDiv: 100}
)

// Churn storm shape, as in the repository's churn experiment: the same
// victims are deleted on odd ticks and re-added on even ones.
const (
	churnInterval = 100 * sim.Microsecond
	churnBatch    = 100
)

// verifyWindow is the simulated time the untimed output checks run for
// (a workload's own T when that is shorter).
const verifyWindow = sim.Millisecond

// routerInst is a router workload's instance. attach, when set, arms the
// control script relative to the current virtual time and is called
// after the warm-up.
type routerInst struct {
	inst   *packetshader.Instance
	attach func() (*ctrl.Controller, error)
	routes int // route updates the script applies inside one window
}

type workload struct {
	name string
	why  string
	// recorded says BENCHMARK.json lists the workload, so the driver runs
	// and gates it. The other two run by hand and as siblings in traced
	// runs: the driver's time limit buys either five workloads at 20 s a
	// run or three at 42 s, and on a shared host only the longer run is
	// steady enough to gate (README.md, "Measured noise floor").
	recorded bool
	// warm and window are W and T: untimed warm-up and timed window of
	// virtual time. Fabric runs are one-shot, so W is 0 there. A router's
	// window is run and timed as slices equal calls of Instance.Run: the
	// shorter the piece, the better the odds that some pass ran it on a
	// quiet host.
	warm, window sim.Duration
	slices       int
	// Exactly one of router and fabric is set. router builds a fresh
	// instance from the seed and decorates it when tr is non-nil.
	router func(seed int64, tr *tracer) (*routerInst, error)
	fabric func(seed int64) cluster.FabricConfig
	// check inspects every tapStride-th transmitted frame in the verify
	// phase. cipher marks the workload whose kernel is the ESP encapsulation.
	check     func(frame []byte, srcTTL uint8) error
	tapStride int
	cipher    bool
	// paperGbps is the paper's figure for this configuration (0: the
	// paper has none and the row is unvalidated); paperInput says the
	// figure is input, not delivered, throughput.
	paperGbps  float64
	paperInput bool
	// sibling is the workload a traced run interleaves with this one for
	// the two difference metrics (churn cost, parallel speed-up); workers
	// is a fabric workload's host goroutine count. priceObs marks the
	// workload on which a traced run also prices the program's own
	// observability.
	sibling  string
	workers  int
	priceObs bool
}

// setProcs pins GOMAXPROCS for w and returns it: one processor, except
// for the workload that advances partitions on two goroutines. A
// simulation runs one process at a time, so a second processor does no
// work for it; it only turns every hand-off between two sim processes
// into a wake-up of a parked OS thread on another CPU, which on a shared
// host is the slowest and least repeatable thing the run does (ipv4-64B:
// 14.5 ns/sim_ns and a 25 % run-to-run range on two processors, 9.7 and
// 5 % on one). One processor is also what a simulation gets under
// `psbench -j nproc`, where every CPU has a job of its own.
func (w *workload) setProcs() int {
	procs := min(max(w.workers, 1), runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	return procs
}

// ipv4Options is the configuration ipv4-64B and ipv4-churn share.
var ipv4Options = []packetshader.Option{
	packetshader.WithMode(packetshader.ModeGPU), packetshader.WithPacketSize(64),
	packetshader.WithOfferedGbps(10),
}

// decorate installs the source and application decorators.
func decorate(inst *packetshader.Instance, tr *tracer) {
	if tr == nil {
		return
	}
	r := inst.Router
	r.SetSource(&tracedSource{inner: r.Source().(nic.FrameSource), tr: tr})
	r.App = &tracedApp{inner: r.App, tr: tr}
}

func workloads(sz sizes) []*workload {
	// decorated wraps an instance the facade built.
	decorated := func(inst *packetshader.Instance, err error, tr *tracer) (*routerInst, error) {
		if err != nil {
			return nil, err
		}
		decorate(inst, tr)
		return &routerInst{inst: inst}, nil
	}
	ipv4 := func(seed int64, tr *tracer) (*routerInst, error) {
		inst, err := packetshader.IPv4(sz.prefixes, seed, ipv4Options...)
		return decorated(inst, err, tr)
	}
	ipsecGW := func(seed int64, tr *tracer) (*routerInst, error) {
		inst, err := packetshader.IPsec(seed,
			packetshader.WithMode(packetshader.ModeGPU), packetshader.WithPacketSize(1514),
			packetshader.WithStreams(4))
		return decorated(inst, err, tr)
	}
	churnT := 20 * sim.Millisecond / sz.div
	churn := func(seed int64, tr *tracer) (*routerInst, error) {
		return buildChurn(sz.prefixes, seed, churnT, tr)
	}
	fabric := func(workers int) func(int64) cluster.FabricConfig {
		return func(seed int64) cluster.FabricConfig {
			return cluster.FabricConfig{
				Topo: &cluster.LeafSpine{
					Leaves: sz.leaves, Spines: sz.spines, Uplinks: 2,
					EdgeGbps: 10, LeafGbps: 40, SpineGbps: 160, UplinkGbps: 10,
				},
				Matrix:      cluster.Uniform(sz.leaves, float64(sz.leaves)*10),
				LinkLatency: 50 * sim.Microsecond,
				Horizon:     20 * sim.Millisecond / sz.div,
				Seed:        uint64(seed),
				Workers:     workers,
				Flows:       cluster.FlowModel{ZipfS: 1.1},
			}
		}
	}
	return []*workload{
		{
			name: "ipv4-64B", recorded: true,
			why:  "smallest packets, cheapest app: the per-packet path (pktgen, packet, hw/nic, hw/pcie, sim hand-offs) does nearly all the host work",
			warm: 4 * sim.Millisecond / sz.div, window: 20 * sim.Millisecond / sz.div,
			slices: 80, router: ipv4, check: checkForwarded, tapStride: 64, paperGbps: 39, priceObs: true, sibling: "ipv4-churn",
		},
		{
			name: "ipsec-1514B", recorded: true,
			why:  "largest packets, heaviest app: ipsec (AES-CTR + HMAC-SHA1) is over 90% of host time and the per-packet path ~35x lighter",
			warm: 2 * sim.Millisecond / sz.div, window: 6 * sim.Millisecond / sz.div,
			slices: 96, router: ipsecGW, check: checkTunnelled, tapStride: 16, cipher: true, paperGbps: 20, paperInput: true,
		},
		{
			name: "fabric-ls64", recorded: true,
			why:    "no packets, NICs or crypto: the sim engine (timer wheel, World windows, link barriers) and cluster forwarders do all the work",
			window: 20 * sim.Millisecond / sz.div,
			fabric: fabric(1), workers: 1, sibling: "fabric-ls64-par",
		},
		{
			name:   "fabric-ls64-par",
			why:    "the same sim.World used differently: partitions advance on two goroutines, so barrier cost and imbalance show against fabric-ls64",
			window: 20 * sim.Millisecond / sz.div,
			fabric: fabric(2), workers: 2, sibling: "fabric-ls64",
		},
		{
			name: "ipv4-churn",
			why:  "writes beside reads on lookup/ipv4 and the only path through ctrl: 10^6 route updates per simulated second on top of ipv4-64B",
			warm: 4 * sim.Millisecond / sz.div, window: churnT,
			slices: 80, router: churn, check: checkForwarded, tapStride: 64, sibling: "ipv4-64B",
		},
	}
}

// buildChurn assembles ipv4-64B with an incrementally updatable FIB and
// the route-update storm. Untraced, it goes through the facade; traced,
// it assembles the same parts by hand the way the churn experiment
// does, because the facade keeps its FIBApplier private and the applier
// is what the trace decorates.
func buildChurn(prefixes int, seed int64, window sim.Duration, tr *tracer) (*routerInst, error) {
	entries := route.GenerateBGPTable(prefixes, 64, seed)
	script := churnScript(entries, window)
	ri := &routerInst{routes: script.RouteUpdates()}
	if tr == nil {
		inst, err := packetshader.IPv4(prefixes, seed,
			append(ipv4Options[:len(ipv4Options):len(ipv4Options)], packetshader.WithFIBUpdate(packetshader.FIBDynamic))...)
		if err != nil {
			return nil, err
		}
		ri.inst = inst
		ri.attach = func() (*ctrl.Controller, error) { return inst.Control(script, nil) }
		return ri, nil
	}
	dyn, err := lookupv4.NewDynamic(entries)
	if err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	cfg := core.DefaultConfig()
	cfg.FIBUpdate = core.FIBDynamic
	r := core.New(env, cfg, &apps.IPv4Fwd{Table: &dyn.Table, NumPorts: model.NumPorts})
	sink := pktgen.NewLatencySink()
	for _, p := range r.Engine.Ports {
		p.Tx.OnComplete = sink.Observe
	}
	r.SetSource(&pktgen.UDP4Source{Size: cfg.PacketSize, Seed: uint64(seed), Table: entries})
	ri.inst = &packetshader.Instance{Env: env, Router: r, Sink: sink}
	decorate(ri.inst, tr)
	fib := &tracedFIB{inner: &ctrl.DynamicFIB{T: dyn}, tr: tr}
	ri.attach = func() (*ctrl.Controller, error) {
		return ctrl.Attach(env, r, script, ctrl.Config{FIB: fib})
	}
	return ri, nil
}

// victimMix is how many victims of each prefix length the storm has: the
// mix the churn experiment's selection yields on the seed-1 BGP table. It
// is fixed because an update's cost follows the cells its prefix covers
// (2^(24-len)): left to the seed, one /8 among the victims makes a batch
// fifteen times dearer, and the workload would measure the draw.
var victimMix = map[uint8]int{11: 1, 13: 1, 14: 2, 15: 3, 16: 2, 17: 3, 18: 7, 19: 7,
	20: 5, 21: 7, 22: 4, 23: 13, 24: 44, 29: 1}

// churnVictims picks churnBatch distinct prefixes spread across the
// table, of the lengths victimMix names; a table too small to have them
// all makes up the number from whatever comes next.
func churnVictims(entries []route.Entry) []route.Entry {
	victims := make([]route.Entry, 0, churnBatch)
	seen := make(map[route.Prefix]bool, churnBatch)
	want := make(map[uint8]int, len(victimMix))
	for l, n := range victimMix {
		want[l] = n
	}
	step := len(entries)/churnBatch + 1
	for _, anyLen := range []bool{false, true} {
		for i := 0; len(victims) < churnBatch && i < len(entries); i++ {
			e := entries[(i*step)%len(entries)]
			if seen[e.Prefix] || (!anyLen && want[e.Prefix.Len] == 0) {
				continue
			}
			seen[e.Prefix] = true
			want[e.Prefix.Len]--
			victims = append(victims, e)
		}
	}
	return victims
}

// churnScript fills the window with one batch per interval, the last
// tick left out so the final batch lands inside the run.
func churnScript(entries []route.Entry, window sim.Duration) *ctrl.Script {
	victims := churnVictims(entries)
	s := ctrl.NewScript()
	for b := 0; b < int(window/churnInterval)-1; b++ {
		ups := make([]ctrl.RouteUpdate, len(victims))
		for i, e := range victims {
			if b%2 == 0 {
				ups[i] = ctrl.RouteUpdate{Act: ctrl.ActDel, Prefix: e.Prefix}
			} else {
				ups[i] = ctrl.RouteUpdate{Act: ctrl.ActAdd, Prefix: e.Prefix, NextHop: e.NextHop}
			}
		}
		s.Add(ctrl.RouteBatch(sim.Duration(b+1)*churnInterval, ups))
	}
	return s
}

// checkForwarded accepts a frame an IPv4 forwarder may emit: the header
// checksum holds and the TTL is one below the source's.
func checkForwarded(frame []byte, srcTTL uint8) error {
	if len(frame) < packet.EthHdrLen+packet.IPv4HdrLen {
		return fmt.Errorf("frame of %d bytes", len(frame))
	}
	hdr := frame[packet.EthHdrLen:]
	if !packet.VerifyIPv4Checksum(hdr) {
		return fmt.Errorf("bad IPv4 header checksum")
	}
	if hdr[8] != srcTTL-1 {
		return fmt.Errorf("TTL %d, source sends %d", hdr[8], srcTTL)
	}
	return nil
}

// checkTunnelled plays the tunnel's far end: a peer SA keyed by
// apps.NewIPsecGW's recipe verifies the ICV and decrypts, and the inner
// packet must be the IPv4 packet the source sent. The two GPU masters
// finish chunks out of order, so every frame gets a fresh peer: the
// anti-replay window is not what is checked here.
func checkTunnelled(frame []byte, srcTTL uint8) error {
	const firstSPI = 0x1000
	outer := append([]byte(nil), frame[packet.EthHdrLen:]...) // Decap decrypts in place
	if len(outer) < packet.IPv4HdrLen+4 {
		return fmt.Errorf("outer packet of %d bytes", len(outer))
	}
	peers := apps.NewIPsecGW(model.NumPorts).SAs
	i := int(binary.BigEndian.Uint32(outer[packet.IPv4HdrLen:])) - firstSPI
	if i < 0 || i >= len(peers) {
		return ipsec.ErrBadSPI
	}
	inner, err := peers[i].Decap(outer)
	if err != nil {
		return err
	}
	if !packet.VerifyIPv4Checksum(inner) || inner[8] != srcTTL {
		return fmt.Errorf("inner packet does not decode (TTL %d)", inner[8])
	}
	return nil
}
