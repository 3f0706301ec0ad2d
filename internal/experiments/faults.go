package experiments

import (
	"fmt"

	"packetshader"
	"packetshader/internal/core"
	"packetshader/internal/faults"
	"packetshader/internal/model"
	"packetshader/internal/sim"
)

// Degradation-curve timeline (absolute virtual time; measurement starts
// after warmup). The GPU fails on both nodes at faultAt and is repaired
// at faultAt+outageLen; the curve is sampled in 1 ms windows.
const (
	faultWarmup    = 3 * sim.Millisecond
	faultAt        = 8 * sim.Millisecond
	faultOutageLen = 8 * sim.Millisecond
	faultEnd       = 22 * sim.Millisecond
	faultWindow    = 1 * sim.Millisecond
	faultPrefixes  = 20000
	faultSeed      = 2026
)

// faultIPv4Router builds the degradation-scenario router through the
// facade — paper-default IPv4 forwarding at full load (64B, 10 Gbps per
// port) with a 20k-prefix table — and runs its warm-up.
func faultIPv4Router(opts ...packetshader.Option) *packetshader.Instance {
	inst := packetshader.Must(packetshader.IPv4(faultPrefixes, faultSeed, opts...))
	inst.Run(faultWarmup)
	return inst
}

// cpuOnlyEnvelope measures fault-free CPU-only throughput of the same
// workload — the floor the degraded system must stay within.
func cpuOnlyEnvelope() float64 {
	inst := faultIPv4Router(packetshader.WithMode(core.ModeCPUOnly))
	defer inst.Close()
	return inst.Run(5 * sim.Millisecond).DeliveredGbps
}

// faultCurve runs the outage scenario and appends the degradation-curve
// rows and fault counters to res.
func faultCurve(res *Result) {
	plan := faults.NewPlan()
	for n := 0; n < model.NumNodes; n++ {
		plan.GPUOutage(n, faultAt, faultOutageLen)
	}
	inst := faultIPv4Router(packetshader.WithFaults(plan))
	defer inst.Close()
	var rep packetshader.Report
	for t := faultWarmup; t < faultEnd; t += faultWindow {
		rep = inst.Run(faultWindow)
		phase := "baseline"
		switch {
		case t+faultWindow > faultAt+faultOutageLen:
			phase = "recovered"
		case t+faultWindow > faultAt:
			phase = "outage"
		}
		res.AddRow(fmt.Sprintf("%d", int(sim.Duration(t)/sim.Millisecond)),
			fmt.Sprintf("%.2f", rep.DeliveredGbps), phase)
	}

	cfg := inst.Router.Cfg
	res.Note("GPU fails on both nodes at t=%dms, repaired at t=%dms; watchdog %.0fus, backoff %.0fus..%.0fus",
		int(faultAt/sim.Millisecond), int((faultAt+faultOutageLen)/sim.Millisecond),
		cfg.GPUWatchdog.Microseconds(), cfg.GPUBackoff.Microseconds(),
		cfg.GPUBackoffMax.Microseconds())
	res.Note("stalls=%d fallback_chunks=%d carrier_drops=%d degraded=%.0fus",
		rep.Stats.GPUStalls, rep.Stats.FallbackChunks, inst.Router.CarrierDrops(),
		rep.DegradedTime.Microseconds())
}

// faultScenario reproduces the graceful-degradation curve: full CPU+GPU
// throughput, GPU failure on both nodes at t₁, watchdog detection and
// CPU-only plateau, repair at t₂, then recovery — all on the virtual
// clock, byte-identical across runs.
func faultScenario(c *Ctx) *Result {
	res := &Result{
		ID:     "faults",
		Title:  "GPU outage degradation curve (IPv4, 64B, full load)",
		Header: []string{"t_ms", "Gbps", "phase"},
	}
	// Job 0 runs the outage curve (it owns res until the barrier); job 1
	// runs the independent fault-free CPU-only envelope.
	envelope := MapPoints(c, 2, func(i int, _ *Point) float64 {
		if i == 0 {
			faultCurve(res)
			return 0
		}
		return cpuOnlyEnvelope()
	})[1]
	res.Note("CPU-only envelope (fault-free, same workload): %.2f Gbps", envelope)
	return res
}
