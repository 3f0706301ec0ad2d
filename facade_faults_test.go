package packetshader_test

import (
	"strings"
	"testing"

	"packetshader"
	"packetshader/internal/faults"
	"packetshader/internal/model"
	"packetshader/internal/pktgen"
)

// TestOptionPacketSizeReachesGenerator is the regression test for the
// bug class the old syncSourceSize hack papered over: the source is now
// constructed from the resolved config, so WithPacketSize must land in
// the generator no matter where it sits in the option list.
func TestOptionPacketSizeReachesGenerator(t *testing.T) {
	v4 := packetshader.Must(packetshader.IPv4(1000, 3,
		packetshader.WithOfferedGbps(5),
		packetshader.WithPacketSize(512)))
	if s, ok := v4.Router.Source().(*pktgen.UDP4Source); !ok || s.Size != 512 {
		t.Errorf("IPv4 generator size = %+v, want 512", v4.Router.Source())
	}
	v6 := packetshader.Must(packetshader.IPv6(1000, 3,
		packetshader.WithPacketSize(1024),
		packetshader.WithMode(packetshader.ModeCPUOnly)))
	if s, ok := v6.Router.Source().(*pktgen.UDP6Source); !ok || s.Size != 1024 {
		t.Errorf("IPv6 generator size = %+v, want 1024", v6.Router.Source())
	}
	// And the configured size really flows to the wire: mean delivered
	// frame must match, not the 64B default.
	rep := v4.Run(2 * packetshader.Millisecond)
	if rep.DeliveredGbps <= 0 {
		t.Fatal("512B run delivered nothing")
	}
}

// TestReportRoundTripUnchanged pins the redesigned build path: reports
// from two identical constructions must be equal field-for-field, in
// both CPU-only and fault-free GPU mode.
func TestReportRoundTripUnchanged(t *testing.T) {
	run := func(mode packetshader.Mode) packetshader.Report {
		inst := packetshader.Must(packetshader.IPv4(3000, 7,
			packetshader.WithMode(mode)))
		inst.Run(2 * packetshader.Millisecond) // warmup
		return inst.Run(2 * packetshader.Millisecond)
	}
	for _, mode := range []packetshader.Mode{packetshader.ModeCPUOnly, packetshader.ModeGPU} {
		r1, r2 := run(mode), run(mode)
		if r1 != r2 {
			t.Errorf("mode %v: identical builds diverged:\n%+v\n%+v", mode, r1, r2)
		}
		if r1.DegradedTime != 0 {
			t.Errorf("mode %v: fault-free run reports degraded time %v", mode, r1.DegradedTime)
		}
	}
}

// gpuOutage is the plan failing every node's GPU at at, repaired after
// dur.
func gpuOutage(at, dur packetshader.Duration) *faults.Plan {
	pl := faults.NewPlan()
	for n := 0; n < model.NumNodes; n++ {
		pl.GPUOutage(n, at, dur)
	}
	return pl
}

func TestFacadeGPUOutage(t *testing.T) {
	inst := packetshader.Must(packetshader.IPv4(2000, 5,
		packetshader.WithFaults(gpuOutage(1*packetshader.Millisecond, 2*packetshader.Millisecond))))
	rep := inst.Run(6 * packetshader.Millisecond)
	if rep.Stats.GPUStalls == 0 {
		t.Error("outage produced no watchdog stalls")
	}
	if rep.DegradedTime == 0 {
		t.Error("outage produced no degraded time")
	}
	if rep.DeliveredGbps <= 0 {
		t.Error("throughput collapsed during outage")
	}
}

func TestFacadeLinkFlap(t *testing.T) {
	inst := packetshader.Must(packetshader.IPv4(2000, 5,
		packetshader.WithFaults(faults.NewPlan().LinkFlap(0, 1*packetshader.Millisecond, 1*packetshader.Millisecond))))
	rep := inst.Run(4 * packetshader.Millisecond)
	if inst.Router.CarrierDrops() == 0 {
		t.Error("flap produced no carrier drops")
	}
	if rep.DroppedPackets < inst.Router.CarrierDrops() {
		t.Error("Report.DroppedPackets does not include carrier drops")
	}
}

// TestLedgerCountsEveryCause: under a link flap and an RX drop burst
// every drop cause the faults reach shows up in the ledger, the ledger
// balances (Run checks it), and its drops are the report's.
func TestLedgerCountsEveryCause(t *testing.T) {
	ms := packetshader.Millisecond
	inst := packetshader.Must(packetshader.IPv4(2000, 5,
		packetshader.WithFaults(faults.NewPlan().LinkFlap(0, 1*ms, 1*ms).RxDropBurst(1, 1*ms, 1*ms))))
	defer inst.Close()
	rep := inst.Run(4 * ms)
	l := rep.Ledger
	if l.Fetched == 0 || l.Transmitted == 0 || l.InFlight == 0 || l.CarrierDrops == 0 || l.RxBurstDrops == 0 {
		t.Errorf("a count the run must move stayed zero: %+v", l)
	}
	if sum := l.RxRingDrops + l.RxBurstDrops + l.TxRingDrops + l.CarrierDrops + l.AppDrops; sum != rep.DroppedPackets {
		t.Errorf("ledger drops sum to %d, report says %d", sum, rep.DroppedPackets)
	}
	if l.CarrierDrops != inst.Router.CarrierDrops() {
		t.Errorf("ledger carrier drops %d, router %d", l.CarrierDrops, inst.Router.CarrierDrops())
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := packetshader.IPv4(1000, 1, packetshader.WithPacketSize(4000)); err == nil ||
		!strings.Contains(err.Error(), "packet size") {
		t.Errorf("oversized packet accepted: %v", err)
	}
	if _, err := packetshader.IPv6(1000, 1, packetshader.WithStreams(0)); err == nil {
		t.Error("zero streams accepted")
	}
	if _, err := packetshader.IPsec(1, packetshader.WithChunkCap(0)); err == nil {
		t.Error("zero chunk cap accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("Must did not panic on error")
		}
	}()
	packetshader.Must(packetshader.IPv4(1000, 1, packetshader.WithPacketSize(10)))
}

// TestNegativePrefixCount: a negative table size is an error from the
// constructor (and so from pshader -prefixes), not a makeslice panic.
func TestNegativePrefixCount(t *testing.T) {
	if _, err := packetshader.IPv4(-1, 1); err == nil || !strings.Contains(err.Error(), "prefix count") {
		t.Errorf("IPv4(-1): err = %v, want a prefix-count error", err)
	}
	if _, err := packetshader.IPv6(-1, 1); err == nil || !strings.Contains(err.Error(), "prefix count") {
		t.Errorf("IPv6(-1): err = %v, want a prefix-count error", err)
	}
}
