package ctrl_test

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"packetshader/internal/apps"
	"packetshader/internal/core"
	"packetshader/internal/ctrl"
	"packetshader/internal/faults"
	"packetshader/internal/model"
	"packetshader/internal/pktgen"
	"packetshader/internal/route"
	"packetshader/internal/sim"

	lookupv4 "packetshader/internal/lookup/ipv4"
)

// --- parser ---

const demoScript = `
# demo
@500us  stats
@1ms    route add 10.1.0.0/16 via 3
@1ms    route del 10.2.0.0/16
@1ms    route replace 10.3.0.0/24 via 5
@1500us set chunkcap 32
@1500us set gathermax 1
@1500us set opportunistic off
@2ms    port 2 down
@2.5ms  port 2 up
@3ms    metrics
@4ms    gpu 1 fail
@4ms    pcie 0 retrain 2
@4ms    rxburst 5 250us
@5ms    gpu 1 repair
@5ms    pcie 0 restore
`

func TestParseScript(t *testing.T) {
	s, err := ctrl.ParseScript(strings.NewReader(demoScript))
	if err != nil {
		t.Fatal(err)
	}
	// The three same-offset route lines coalesce into one batch.
	if got := s.Len(); got != 13 {
		t.Fatalf("Len = %d, want 13", got)
	}
	if got := s.RouteUpdates(); got != 3 {
		t.Fatalf("RouteUpdates = %d, want 3", got)
	}
	if !s.HasRoutes() {
		t.Fatal("HasRoutes = false")
	}
	cmds := s.Commands()
	if cmds[0].Op != ctrl.OpStats || cmds[0].At != 500*sim.Microsecond {
		t.Fatalf("first command = %+v, want stats @500us", cmds[0])
	}
	batch := cmds[1]
	if batch.Op != ctrl.OpRoute || len(batch.Routes) != 3 {
		t.Fatalf("batch = %+v, want 3-route batch", batch)
	}
	wantActs := []ctrl.RouteAction{ctrl.ActAdd, ctrl.ActDel, ctrl.ActReplace}
	for i, act := range wantActs {
		if batch.Routes[i].Act != act {
			t.Errorf("route %d action = %v, want %v", i, batch.Routes[i].Act, act)
		}
	}
	if got := batch.Routes[0].Prefix; got.Len != 16 || uint32(got.Addr) != 0x0a010000 {
		t.Errorf("route 0 prefix = %+v, want 10.1.0.0/16", got)
	}
	if batch.Routes[0].NextHop != 3 {
		t.Errorf("route 0 hop = %d, want 3", batch.Routes[0].NextHop)
	}
	if cmds[7].Op != ctrl.OpMetrics || cmds[7].At != 3*sim.Millisecond {
		t.Fatalf("last command = %+v, want metrics @3ms", cmds[7])
	}
	// @2.5ms decimal offset.
	if cmds[6].At != 2500*sim.Microsecond {
		t.Fatalf("port up offset = %v, want 2.5ms", cmds[6].At)
	}
	// The hardware verbs parse to one fault event each, its target in
	// Port or Node by kind and its argument in Div or Dur.
	ms := sim.Millisecond
	wantHW := []ctrl.Command{
		fault(faults.Event{At: 2 * ms, Kind: faults.KindLinkDown, Port: 2}),
		fault(faults.Event{At: 2500 * sim.Microsecond, Kind: faults.KindLinkUp, Port: 2}),
		ctrl.Metrics(3 * ms),
		fault(faults.Event{At: 4 * ms, Kind: faults.KindGPUFail, Node: 1}),
		fault(faults.Event{At: 4 * ms, Kind: faults.KindPCIeRetrain, Node: 0, Div: 2}),
		fault(faults.Event{At: 4 * ms, Kind: faults.KindRxDropBurst, Port: 5, Dur: 250 * sim.Microsecond}),
		fault(faults.Event{At: 5 * ms, Kind: faults.KindGPURepair, Node: 1}),
		fault(faults.Event{At: 5 * ms, Kind: faults.KindPCIeRestore, Node: 0}),
	}
	if !reflect.DeepEqual(cmds[5:], wantHW) {
		t.Fatalf("hardware commands = %+v\nwant %+v", cmds[5:], wantHW)
	}
}

// fault is the OpFault command delivering e at its offset.
func fault(e faults.Event) ctrl.Command {
	return ctrl.Command{At: e.At, Op: ctrl.OpFault, Fault: e}
}

func TestParseScriptSplitRouteBatches(t *testing.T) {
	s, err := ctrl.ParseScript(strings.NewReader(`
@1ms route add 10.0.0.0/8 via 1
@2ms route add 11.0.0.0/8 via 1
@2ms route add 12.0.0.0/8 via 1
`))
	if err != nil {
		t.Fatal(err)
	}
	// Different offsets break the batch: 1 + 2.
	if s.Len() != 2 || s.RouteUpdates() != 3 {
		t.Fatalf("Len=%d RouteUpdates=%d, want 2 and 3", s.Len(), s.RouteUpdates())
	}
}

func TestParseScriptErrors(t *testing.T) {
	for _, bad := range []string{
		"stats",                            // missing @offset
		"@1x stats",                        // bad unit
		"@-1ms stats",                      // negative offset
		"@1ms bogus",                       // unknown command
		"@1ms route add 10.0.0.0/8",        // missing via
		"@1ms route add 10.1.0.0/8 via 1",  // host bits set
		"@1ms route add 300.0.0.0/8 via 1", // bad octet
		"@1ms route add 10.0.0.0/33 via 1", // bad length
		"@1ms route del",                   // missing prefix
		"@1ms set chunkcap zero",           // non-numeric
		"@1ms set chunkcap 0",              // below 1
		"@1ms set opportunistic maybe",     // bad bool
		"@1ms port 1 sideways",             // bad direction
		"@1ms stats now",                   // trailing arg
		"@NaNms stats",                     // ParseFloat accepts NaN
		"@Infs stats",                      // ... and Inf
		"@1e30s stats",                     // overflows the picosecond clock
		"@1ms port -1 down",                // negative index
		"@1ms gpu 0",                       // missing action
		"@1ms gpu x fail",                  // non-numeric node
		"@1ms gpu -1 fail",                 // negative node
		"@1ms gpu 0 explode",               // bad action
		"@1ms gpu 0 fail now",              // trailing arg
		"@1ms pcie 0",                      // missing action
		"@1ms pcie 0 retrain",              // missing divisor
		"@1ms pcie 0 retrain 0",            // divisor below 1
		"@1ms pcie 0 retrain two",          // non-numeric divisor
		"@1ms pcie 0 restore 2",            // restore takes no divisor
		"@1ms pcie 0 sideways",             // bad action
		"@1ms rxburst 1",                   // missing duration
		"@1ms rxburst 1 0us",               // empty window
		"@1ms rxburst 1 5",                 // duration without unit
		"@1ms rxburst 70000 5us",           // index beyond 16 bits
	} {
		if _, err := ctrl.ParseScript(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseScript(%q): want error", bad)
		}
	}
}

// --- FIB appliers ---

// TestAppliersEquivalent drives the same update batches through the
// incremental and rebuild strategies and checks the resulting routing
// functions agree (and diverge from the untouched base).
func TestAppliersEquivalent(t *testing.T) {
	entries := route.GenerateBGPTable(2000, 16, 9)
	dyn, err := lookupv4.NewDynamic(entries)
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt *lookupv4.Table
	reb, err := ctrl.NewRebuildFIB(entries, func(tb *lookupv4.Table) { rebuilt = tb })
	if err != nil {
		t.Fatal(err)
	}
	base, err := lookupv4.Build(entries)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]ctrl.RouteUpdate{
		{
			{Act: ctrl.ActAdd, Prefix: route.Prefix{Addr: 0x0a000000, Len: 8}, NextHop: 9},
			{Act: ctrl.ActDel, Prefix: entries[0].Prefix},
		},
		{
			{Act: ctrl.ActReplace, Prefix: entries[1].Prefix, NextHop: 11},
			{Act: ctrl.ActAdd, Prefix: route.Prefix{Addr: 0x0a010200, Len: 24}, NextHop: 12},
		},
	}
	var dynCells, rebCells uint64
	for _, b := range batches {
		dc, err := (&ctrl.DynamicFIB{T: dyn}).ApplyRoutes(b)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := reb.ApplyRoutes(b)
		if err != nil {
			t.Fatal(err)
		}
		dynCells += dc
		rebCells += rc
	}
	if rebuilt == nil {
		t.Fatal("Install hook never ran")
	}
	if rebCells != 2<<24 {
		t.Fatalf("rebuild cells = %d, want 2 full rebuilds (%d)", rebCells, 2<<24)
	}
	if dynCells == 0 || dynCells >= rebCells {
		t.Fatalf("incremental cells = %d, want nonzero and far below %d", dynCells, rebCells)
	}
	diverged := false
	for i := 0; i < 1<<16; i++ {
		addr := route.GenerateBGPTable(1, 16, int64(i))[0].Prefix.Addr
		d, r := dyn.Lookup(addr), rebuilt.Lookup(addr)
		if d != r {
			t.Fatalf("addr %v: incremental hop %d != rebuild hop %d", addr, d, r)
		}
		if d != base.Lookup(addr) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("updates had no observable effect on any probed address")
	}
}

// --- controller on a live router ---

// testRouter assembles a small dynamic-FIB IPv4 router for controller
// tests. Traffic dsts are drawn from the table, so route churn has an
// observable forwarding effect.
func testRouter(t *testing.T) (*sim.Env, *core.Router, *lookupv4.DynamicTable, []route.Entry) {
	t.Helper()
	entries := route.GenerateBGPTable(2000, 16, 9)
	dyn, err := lookupv4.NewDynamic(entries)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	cfg := core.DefaultConfig()
	cfg.PacketSize = 64
	r := core.New(env, cfg, &apps.IPv4Fwd{Table: &dyn.Table, NumPorts: model.NumPorts})
	r.SetSource(&pktgen.UDP4Source{Size: 64, Seed: 9, Table: entries})
	return env, r, dyn, entries
}

func run(env *sim.Env, r *core.Router, d sim.Duration) {
	r.Start()
	env.Run(env.Now() + sim.Time(d))
}

func TestAttachPrechecks(t *testing.T) {
	env, r, dyn, _ := testRouter(t)
	cases := []struct {
		name   string
		script *ctrl.Script
		cfg    ctrl.Config
		want   string // in the error
	}{
		{"route without FIB", ctrl.NewScript(ctrl.RouteDel(0, route.Prefix{Len: 8})), ctrl.Config{}, "FIBApplier"},
		{"empty batch", ctrl.NewScript(ctrl.RouteBatch(0, nil)), ctrl.Config{FIB: &ctrl.DynamicFIB{T: dyn}}, "empty route batch"},
		{"chunkcap zero", ctrl.NewScript(ctrl.SetChunkCap(0, 0)), ctrl.Config{}, "chunkcap 0"},
		{"gathermax zero", ctrl.NewScript(ctrl.SetGatherMax(0, 0)), ctrl.Config{}, "gathermax 0"},
		{"port high", faultScript(faults.Event{Kind: faults.KindLinkDown, Port: model.NumPorts}), ctrl.Config{}, "port 8 outside"},
		{"port negative", faultScript(faults.Event{Kind: faults.KindLinkUp, Port: -1}), ctrl.Config{}, "port -1 outside"},
		{"gpu node high", faultScript(faults.Event{Kind: faults.KindGPUFail, Node: model.NumNodes}), ctrl.Config{}, "node 2 outside"},
		{"pcie node negative", faultScript(faults.Event{Kind: faults.KindPCIeRestore, Node: -1}), ctrl.Config{}, "node -1 outside"},
		{"pcie divisor zero", faultScript(faults.Event{Kind: faults.KindPCIeRetrain}), ctrl.Config{}, "divisor 0"},
		{"rxburst port high", faultScript(faults.Event{Kind: faults.KindRxDropBurst, Port: model.NumPorts, Dur: sim.Microsecond}), ctrl.Config{}, "port 8 outside"},
		{"rxburst empty", faultScript(faults.Event{Kind: faults.KindRxDropBurst}), ctrl.Config{}, "duration"},
		{"unknown kind", faultScript(faults.Event{Kind: 99}), ctrl.Config{}, "fault-99"},
		{"negative offset", ctrl.NewScript(ctrl.Stats(-1)), ctrl.Config{}, "negative offset"},
	}
	for _, c := range cases {
		if _, err := ctrl.Attach(env, r, c.script, c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: attach error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// faultScript is the script of one OpFault command delivering e.
func faultScript(e faults.Event) *ctrl.Script { return ctrl.NewScript(fault(e)) }

// TestAttachRejectsBadPrefix: a batch built in code skips the parser's
// host-bit check, so Attach applies the same rule and names the prefix;
// otherwise the table write would panic inside a scheduler callback.
func TestAttachRejectsBadPrefix(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	for _, p := range []route.Prefix{{Addr: 0xfffffe00, Len: 8}, {Addr: 0x0a000000, Len: 40}} {
		script := ctrl.NewScript(ctrl.RouteBatch(sim.Millisecond, []ctrl.RouteUpdate{
			{Act: ctrl.ActAdd, Prefix: route.Prefix{Addr: 0x0a000000, Len: 8}, NextHop: 1},
			{Act: ctrl.ActAdd, Prefix: p, NextHop: 1},
		}))
		// Route commands need no router to be checked.
		_, err := ctrl.Attach(env, nil, script, ctrl.Config{FIB: &ctrl.DynamicFIB{}})
		if err == nil || !strings.Contains(err.Error(), p.String()) {
			t.Errorf("Attach with %v: err = %v, want an error naming the prefix", p, err)
		}
	}
}

// TestRouteCommandsChangeForwarding pins that a scripted route delete
// has a real data-path effect (app drops) and that restoring the route
// stops the bleeding — and that the controller accounts both batches.
func TestRouteCommandsChangeForwarding(t *testing.T) {
	env, r, dyn, entries := testRouter(t)
	// Delete a mid-table prefix at 1ms, restore it at 3ms.
	victim := entries[1000]
	script := ctrl.NewScript(
		ctrl.RouteDel(1*sim.Millisecond, victim.Prefix),
		ctrl.RouteAdd(3*sim.Millisecond, victim.Prefix, victim.NextHop),
	)
	var out bytes.Buffer
	ctl, err := ctrl.Attach(env, r, script, ctrl.Config{Out: &out, FIB: &ctrl.DynamicFIB{T: dyn}})
	if err != nil {
		t.Fatal(err)
	}
	run(env, r, 3*sim.Millisecond)
	dropsDuring := r.Stats.Drops
	if ctl.Fired() != 2 || ctl.RoutesApplied() != 2 {
		t.Fatalf("fired=%d applied=%d, want 2/2", ctl.Fired(), ctl.RoutesApplied())
	}
	if len(ctl.Errors()) != 0 {
		t.Fatalf("ctrl errors: %v", ctl.Errors())
	}
	if dropsDuring == 0 {
		t.Fatal("route del caused no app drops — storm had no forwarding effect")
	}
	// Let chunks that were already in flight at the restore instant
	// drain, then require the bleeding has fully stopped.
	env.Run(env.Now() + sim.Time(1*sim.Millisecond))
	settled := r.Stats.Drops
	env.Run(env.Now() + sim.Time(2*sim.Millisecond))
	if after := r.Stats.Drops - settled; after != 0 {
		t.Fatalf("%d drops long after the route was restored, want 0", after)
	}
	for _, want := range []string{"route applied=1", "@1000.000us", "@3000.000us"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestTuningObservable pins that a live gather-max retune reaches the
// master: launches-per-chunk rises once gathering is disabled.
func TestTuningObservable(t *testing.T) {
	env, r, _, _ := testRouter(t)
	script := ctrl.NewScript(
		ctrl.SetGatherMax(2*sim.Millisecond, 1),
		ctrl.SetChunkCap(2*sim.Millisecond, 16),
	)
	if _, err := ctrl.Attach(env, r, script, ctrl.Config{}); err != nil {
		t.Fatal(err)
	}
	run(env, r, 2*sim.Millisecond)
	launches0, chunks0 := r.Stats.GPULaunches, r.Stats.ChunksGPU
	if launches0 == 0 || chunks0 <= launches0 {
		t.Fatalf("before retune: launches=%d chunks=%d, want gathering >1 chunk/launch",
			launches0, chunks0)
	}
	// Let chunks in flight across the retune drain, then measure a
	// steady-state window: no gathering means exactly 1 chunk/launch.
	env.Run(env.Now() + sim.Time(1*sim.Millisecond))
	launches1, chunks1 := r.Stats.GPULaunches, r.Stats.ChunksGPU
	env.Run(env.Now() + sim.Time(2*sim.Millisecond))
	launches2, chunks2 := r.Stats.GPULaunches-launches1, r.Stats.ChunksGPU-chunks1
	if launches2 == 0 || chunks2 != launches2 {
		t.Fatalf("after gathermax=1: launches=%d chunks=%d, want exactly 1 chunk/launch",
			launches2, chunks2)
	}
}

// TestPortAdminDropsCarrier pins that scripted port admin reaches the
// NIC: TX to the downed port is dropped and accounted.
func TestPortAdminDropsCarrier(t *testing.T) {
	env, r, _, _ := testRouter(t)
	var out bytes.Buffer
	script := ctrl.NewScript(
		fault(faults.Event{At: 1 * sim.Millisecond, Kind: faults.KindLinkDown, Port: 2}),
		ctrl.Stats(2*sim.Millisecond),
		fault(faults.Event{At: 3 * sim.Millisecond, Kind: faults.KindLinkUp, Port: 2}),
	)
	if _, err := ctrl.Attach(env, r, script, ctrl.Config{Out: &out}); err != nil {
		t.Fatal(err)
	}
	run(env, r, 4*sim.Millisecond)
	if drops := r.CarrierDrops(); drops == 0 {
		t.Fatal("no carrier drops after scripted port down")
	}
	if !strings.Contains(out.String(), "port 2 down") ||
		!strings.Contains(out.String(), "port 2 up") ||
		!strings.Contains(out.String(), "stats packets=") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

// TestStatsPrintsLedger: the stats command prints the packet ledger on
// the line after its counters, every count under its LedgerNames name,
// and mid-run, with a port down, the ledger balances and counts the
// carrier drops.
func TestStatsPrintsLedger(t *testing.T) {
	env, r, _, _ := testRouter(t)
	var out bytes.Buffer
	script := ctrl.NewScript(
		fault(faults.Event{At: 1 * sim.Millisecond, Kind: faults.KindLinkDown, Port: 2}),
		ctrl.Stats(2*sim.Millisecond),
	)
	if _, err := ctrl.Attach(env, r, script, ctrl.Config{Out: &out}); err != nil {
		t.Fatal(err)
	}
	run(env, r, 3*sim.Millisecond)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := strings.Fields(lines[len(lines)-1])
	if len(lines) < 2 || !strings.Contains(lines[len(lines)-2], " stats packets=") ||
		len(last) != 2+len(core.LedgerNames) || last[1] != "ledger" {
		t.Fatalf("want a stats line, then a ledger line:\n%s", out.String())
	}
	var n [len(core.LedgerNames)]uint64
	for i, name := range core.LedgerNames {
		v, ok := strings.CutPrefix(last[2+i], name+"=")
		if !ok {
			t.Fatalf("ledger field %d is %q, want %s=", i, last[2+i], name)
		}
		var err error
		if n[i], err = strconv.ParseUint(v, 10, 64); err != nil {
			t.Fatal(err)
		}
	}
	l := core.Ledger{Fetched: n[0], Transmitted: n[1], TxRingDrops: n[2], CarrierDrops: n[3],
		AppDrops: n[4], InFlight: n[5], RxRingDrops: n[6], RxBurstDrops: n[7]}
	if l.Counts() != n {
		t.Fatalf("Counts() = %v, not in LedgerNames order %v", l.Counts(), n)
	}
	if err := l.Check(); err != nil || l.CarrierDrops == 0 {
		t.Errorf("printed ledger %+v: %v, carrier drops %d (want some)", l, err, l.CarrierDrops)
	}
}

// TestControllerByteIdentity replays the same script against two
// identically seeded routers and requires byte-identical responses —
// the determinism contract of the control plane.
func TestControllerByteIdentity(t *testing.T) {
	runOnce := func() string {
		env, r, dyn, entries := testRouter(t)
		script := ctrl.NewScript(
			ctrl.Stats(500*sim.Microsecond),
			ctrl.RouteDel(1*sim.Millisecond, entries[500].Prefix),
			ctrl.SetChunkCap(1500*sim.Microsecond, 32),
			fault(faults.Event{At: 2 * sim.Millisecond, Kind: faults.KindLinkDown, Port: 1}),
			ctrl.Stats(2500*sim.Microsecond),
		)
		var out bytes.Buffer
		if _, err := ctrl.Attach(env, r, script, ctrl.Config{Out: &out, FIB: &ctrl.DynamicFIB{T: dyn}}); err != nil {
			t.Fatal(err)
		}
		run(env, r, 3*sim.Millisecond)
		return out.String()
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("replay diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if !strings.Contains(a, "stats packets=") {
		t.Fatalf("unexpected output:\n%s", a)
	}
}

// --- fault plans through the controller ---

// TestControllerDeliversPlanAtScheduledTimes pins that a compiled fault
// plan fires at attach instant + Event.At — here attached after a 10 ms
// warm-up, from scheduler context — in plan order, and that each
// command reaches the hardware model it names.
func TestControllerDeliversPlanAtScheduledTimes(t *testing.T) {
	env, r, _, _ := testRouter(t)
	pl := faults.NewPlan().
		LinkFlap(2, 1*sim.Millisecond, 500*sim.Microsecond).
		GPUOutage(1, 2*sim.Millisecond, 1*sim.Millisecond)
	var out bytes.Buffer
	var ctl *ctrl.Controller
	env.At(sim.Time(10*sim.Millisecond), func() {
		var err error
		if ctl, err = ctrl.Attach(env, r, ctrl.FromPlan(pl), ctrl.Config{Out: &out}); err != nil {
			t.Error(err)
		}
	})
	// state samples the three pieces of hardware the plan touches.
	type state struct{ carrier2, gpu0, gpu1 bool }
	var got []state
	for _, ms := range []float64{10.5, 11.25, 11.75, 12.5, 13.5} {
		env.At(sim.Time(ms*float64(sim.Millisecond)), func() {
			got = append(got, state{r.Engine.Ports[2].Tx.CarrierUp(),
				!r.Devices[0].Failed, !r.Devices[1].Failed})
		})
	}
	env.Run(0)

	wantOut := "@11000.000us port 2 down\n@11500.000us port 2 up\n" +
		"@12000.000us gpu 1 fail\n@13000.000us gpu 1 repair\n"
	if out.String() != wantOut {
		t.Errorf("responses:\n%s\nwant:\n%s", out.String(), wantOut)
	}
	want := []state{
		{true, true, true},  // attached, nothing fired
		{false, true, true}, // port 2 down
		{true, true, true},  // port 2 back
		{true, true, false}, // GPU 1 failed, GPU 0 untouched
		{true, true, true},  // repaired
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hardware state = %+v\nwant %+v", got, want)
	}
	if ctl.Fired() != 4 {
		t.Errorf("fired %d of 4 commands", ctl.Fired())
	}
}

// TestControllerPCIeRetrainRestore pins the retrain pair: β/2 at the
// attach instant, full speed after the restore.
func TestControllerPCIeRetrainRestore(t *testing.T) {
	env, r, _, _ := testRouter(t)
	var out bytes.Buffer
	pl := faults.NewPlan().PCIeRetrain(0, 0, sim.Millisecond)
	if _, err := ctrl.Attach(env, r, ctrl.FromPlan(pl), ctrl.Config{Out: &out}); err != nil {
		t.Fatal(err)
	}
	var mid int
	env.At(sim.Time(500*sim.Microsecond), func() { mid = r.Devices[0].Link.RetrainDivisor() })
	env.Run(0)
	if end := r.Devices[0].Link.RetrainDivisor(); mid != 2 || end != 1 {
		t.Errorf("divisor mid-retrain = %d, after restore = %d; want 2 then 1", mid, end)
	}
	if want := "@0.000us pcie 0 retrain 2\n@1000.000us pcie 0 restore\n"; out.String() != want {
		t.Errorf("responses:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestFromPlanKeepsPlanOrder pins the compile step: one OpFault command
// per event, sorted by offset with same-instant events in insertion
// order, carrying the event whole.
func TestFromPlanKeepsPlanOrder(t *testing.T) {
	pl := faults.NewPlan().
		GPUOutage(1, 5*sim.Millisecond, 2*sim.Millisecond).
		LinkFlap(3, 1*sim.Millisecond, 1*sim.Millisecond).
		RxDropBurst(4, 5*sim.Millisecond, 100*sim.Microsecond).
		PCIeRetrain(0, 5*sim.Millisecond, 2*sim.Millisecond)
	got := ctrl.FromPlan(pl).Commands()
	ms := sim.Millisecond
	want := []ctrl.Command{
		fault(faults.Event{At: 1 * ms, Kind: faults.KindLinkDown, Port: 3}),
		fault(faults.Event{At: 2 * ms, Kind: faults.KindLinkUp, Port: 3}),
		fault(faults.Event{At: 5 * ms, Kind: faults.KindGPUFail, Node: 1}),
		fault(faults.Event{At: 5 * ms, Kind: faults.KindRxDropBurst, Port: 4, Dur: 100 * sim.Microsecond}),
		fault(faults.Event{At: 5 * ms, Kind: faults.KindPCIeRetrain, Node: 0, Div: 2}),
		fault(faults.Event{At: 7 * ms, Kind: faults.KindGPURepair, Node: 1}),
		fault(faults.Event{At: 7 * ms, Kind: faults.KindPCIeRestore, Node: 0}),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("compiled script = %+v\nwant %+v", got, want)
	}
	if n := ctrl.FromPlan(nil).Len(); n != 0 {
		t.Errorf("nil plan compiled to %d commands", n)
	}
}
