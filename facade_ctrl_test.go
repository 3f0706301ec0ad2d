package packetshader_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"packetshader"
	"packetshader/internal/ctrl"
	"packetshader/internal/faults"
	"packetshader/internal/model"
	"packetshader/internal/route"
	"packetshader/internal/sim"
)

// TestValidateBoundaries pins the exact acceptance edges of validate():
// the calibrated packet-size range and the positive-integer knobs.
func TestValidateBoundaries(t *testing.T) {
	for _, c := range []struct {
		name string
		opt  packetshader.Option
		ok   bool
	}{
		{"size 63", packetshader.WithPacketSize(63), false},
		{"size 64", packetshader.WithPacketSize(64), true},
		{"size 1514", packetshader.WithPacketSize(1514), true},
		{"size 1515", packetshader.WithPacketSize(1515), false},
		{"streams 0", packetshader.WithStreams(0), false},
		{"streams 1", packetshader.WithStreams(1), true},
		{"chunk cap 0", packetshader.WithChunkCap(0), false},
		{"chunk cap 1", packetshader.WithChunkCap(1), true},
		{"gather max 0", packetshader.WithGatherMax(0), false},
		{"gather max 1", packetshader.WithGatherMax(1), true},
		{"offered -1", packetshader.WithOfferedGbps(-1), false},
		{"offered NaN", packetshader.WithOfferedGbps(math.NaN()), false},
		{"offered +Inf", packetshader.WithOfferedGbps(math.Inf(1)), false},
		{"offered 0", packetshader.WithOfferedGbps(0), true},
		{"offered 1e-7", packetshader.WithOfferedGbps(1e-7), false},
		{"offered 1e-6", packetshader.WithOfferedGbps(1e-6), true},
		{"offered 10", packetshader.WithOfferedGbps(10), true},
		{"offered 10.5", packetshader.WithOfferedGbps(10.5), false},
		{"offered 1e6", packetshader.WithOfferedGbps(1e6), false},
		{"offered 1e20", packetshader.WithOfferedGbps(1e20), false},
		{"fib mode 99", packetshader.WithFIBUpdate(packetshader.FIBUpdateMode(99)), false},
	} {
		_, err := packetshader.IPv4(500, 1, c.opt)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: want validation error", c.name)
		}
	}
}

// TestValidateFaultTargets pins that fault options are range-checked at
// construction, not discovered as silent no-ops (or panics) mid-run.
func TestValidateFaultTargets(t *testing.T) {
	ms := packetshader.Millisecond
	if _, err := packetshader.IPv4(500, 1, packetshader.WithFaults(
		faults.NewPlan().LinkFlap(model.NumPorts, ms, ms))); err == nil ||
		!strings.Contains(err.Error(), "port") {
		t.Errorf("out-of-range flap port accepted: %v", err)
	}
	if _, err := packetshader.IPv4(500, 1, packetshader.WithFaults(
		faults.NewPlan().LinkFlap(-1, ms, ms))); err == nil {
		t.Error("negative flap port accepted")
	}
	if _, err := packetshader.IPv4(500, 1, packetshader.WithFaults(
		faults.NewPlan().GPUOutage(model.NumNodes, 0, packetshader.Millisecond))); err == nil ||
		!strings.Contains(err.Error(), "node") {
		t.Errorf("out-of-range outage node accepted: %v", err)
	}
}

// TestUnknownFaultKindRejected: an event of a kind outside the seven
// fails the constructor and names the kind, rather than building an
// instance that never faults.
func TestUnknownFaultKindRejected(t *testing.T) {
	_, err := packetshader.IPv4(500, 1, packetshader.WithFaults(faults.NewPlan().Add(faults.Event{Kind: 99})))
	if err == nil || !strings.Contains(err.Error(), "fault-99") {
		t.Errorf("unknown fault kind: err = %v, want an error naming fault-99", err)
	}
}

// TestWithFaultsMerges pins the option-composition contract: multiple
// fault options merge into one armed plan.
func TestWithFaultsMerges(t *testing.T) {
	pl := faults.NewPlan().LinkFlap(1, packetshader.Millisecond, packetshader.Millisecond)
	inst := packetshader.Must(packetshader.IPv4(2000, 5,
		packetshader.WithFaults(pl),
		packetshader.WithFaults(gpuOutage(packetshader.Millisecond, 2*packetshader.Millisecond))))
	rep := inst.Run(5 * packetshader.Millisecond)
	if inst.Router.CarrierDrops() == 0 {
		t.Error("merged plan produced no carrier drops")
	}
	if rep.Stats.GPUStalls == 0 {
		t.Error("merged plan produced no GPU stalls")
	}
}

// TestFaultsPlanMerge covers Merge directly, including nil.
func TestFaultsPlanMerge(t *testing.T) {
	a := faults.NewPlan().LinkFlap(0, 0, sim.Millisecond)
	b := faults.NewPlan().GPUOutage(1, sim.Millisecond, sim.Millisecond)
	if got := a.Merge(b).Merge(nil).Len(); got != 4 {
		t.Fatalf("merged plan has %d events, want 4", got)
	}
	if b.Len() != 2 {
		t.Fatalf("merge mutated its argument: %d events", b.Len())
	}
}

// TestRepeatedRunWarmupMeasure pins the warmup-then-measure contract:
// repeated Run calls continue one simulation (virtual time accumulates,
// cumulative stats grow) while the measurement window restarts.
func TestRepeatedRunWarmupMeasure(t *testing.T) {
	inst := packetshader.Must(packetshader.IPv4(2000, 5))
	r1 := inst.Run(2 * packetshader.Millisecond)
	if got := inst.Env.Now(); got != sim.Time(2*sim.Millisecond) {
		t.Fatalf("after first run Now = %v, want exactly 2ms", got)
	}
	r2 := inst.Run(2 * packetshader.Millisecond)
	if got := inst.Env.Now(); got != sim.Time(4*sim.Millisecond) {
		t.Fatalf("after second run Now = %v, want exactly 4ms", got)
	}
	if r2.Stats.Packets <= r1.Stats.Packets {
		t.Errorf("cumulative packets did not grow: %d then %d",
			r1.Stats.Packets, r2.Stats.Packets)
	}
	// The measured window restarted: post-warmup throughput must not be
	// dragged down by the cold start (ramp-up would halve r1).
	if r2.DeliveredGbps < r1.DeliveredGbps {
		t.Errorf("measured run slower than warmup: %.2f < %.2f",
			r2.DeliveredGbps, r1.DeliveredGbps)
	}
}

// TestControlRequiresUpdatableFIB pins that route scripts are rejected
// at attach on a static-table instance, with a pointed error.
func TestControlRequiresUpdatableFIB(t *testing.T) {
	inst := packetshader.Must(packetshader.IPv4(500, 1))
	script := ctrl.NewScript(ctrl.RouteDel(packetshader.Millisecond, route.Prefix{Len: 8}))
	if _, err := inst.Control(script, nil); err == nil ||
		!strings.Contains(err.Error(), "FIB") {
		t.Fatalf("static instance accepted route script: %v", err)
	}
	// Non-route commands are fine on any instance.
	if _, err := inst.Control(ctrl.NewScript(ctrl.Stats(packetshader.Millisecond)), nil); err != nil {
		t.Fatalf("stats script rejected: %v", err)
	}
}

// TestControlEndToEnd drives a parsed .psc session through the facade
// on a dynamic-FIB instance and checks the responses and the data-path
// effect, twice, byte-identically.
func TestControlEndToEnd(t *testing.T) {
	text := `
@500us stats
@1ms   route add 10.0.0.0/8 via 1
@1ms   route del 10.0.0.0/8
@2ms   stats
`
	runOnce := func(mode packetshader.FIBUpdateMode) string {
		script, err := ctrl.ParseScript(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		inst := packetshader.Must(packetshader.IPv4(2000, 5,
			packetshader.WithFIBUpdate(mode)))
		var out bytes.Buffer
		ctl, err := inst.Control(script, &out)
		if err != nil {
			t.Fatal(err)
		}
		// The two same-offset route lines coalesce into one batch:
		// stats, route(2), stats.
		if inst.Run(3 * packetshader.Millisecond); ctl.Fired() != 3 {
			t.Fatalf("fired %d of 3 commands", ctl.Fired())
		}
		if len(ctl.Errors()) != 0 {
			t.Fatalf("ctrl errors: %v", ctl.Errors())
		}
		if ctl.RoutesApplied() != 2 {
			t.Fatalf("applied %d route updates, want 2", ctl.RoutesApplied())
		}
		return out.String()
	}
	for _, mode := range []packetshader.FIBUpdateMode{packetshader.FIBDynamic, packetshader.FIBRebuild} {
		a, b := runOnce(mode), runOnce(mode)
		if a != b {
			t.Errorf("mode %v: replay diverged:\n%s\nvs\n%s", mode, a, b)
		}
		if !strings.Contains(a, "route applied=2") {
			t.Errorf("mode %v: batch response missing:\n%s", mode, a)
		}
	}
}
