package experiments

import (
	"fmt"

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

// faultIPv4Router builds the degradation-scenario router: paper-default
// CPU+GPU IPv4 forwarding at full load with a 20k-prefix table, with
// plan (nil for none) attached through the controller.
func faultIPv4Router(env *sim.Env, mode core.Mode, plan *faults.Plan) *core.Router {
	entries := route.GenerateBGPTable(faultPrefixes, 64, faultSeed)
	tbl, err := lookupv4.Build(entries)
	if err != nil {
		panic(err)
	}
	cfg := core.DefaultConfig()
	cfg.Mode = mode
	cfg.PacketSize = 64
	r := core.New(env, cfg, &apps.IPv4Fwd{Table: tbl, NumPorts: model.NumPorts})
	r.SetSource(&pktgen.UDP4Source{Size: 64, Seed: faultSeed, Table: entries})
	if _, err := ctrl.Attach(env, r, ctrl.FromPlan(plan), ctrl.Config{}); err != nil {
		panic(err)
	}
	return r
}

// cpuOnlyEnvelope measures fault-free CPU-only throughput of the same
// workload — the floor the degraded system must stay within.
func cpuOnlyEnvelope() float64 {
	env := sim.NewEnv()
	defer env.Close()
	r := faultIPv4Router(env, core.ModeCPUOnly, nil)
	r.Start()
	env.Run(sim.Time(faultWarmup))
	r.ResetMeasurement()
	env.Run(sim.Time(faultWarmup + 5*sim.Millisecond))
	return r.DeliveredGbps()
}

// faultCurve runs the outage scenario and appends the degradation-curve
// rows and fault counters to res.
func faultCurve(res *Result) {
	env := sim.NewEnv()
	defer env.Close()
	plan := faults.NewPlan()
	for n := 0; n < model.NumNodes; n++ {
		plan.GPUOutage(n, faultAt, faultOutageLen)
	}
	r := faultIPv4Router(env, core.ModeGPU, plan)
	r.Start()
	env.Run(sim.Time(faultWarmup))
	r.ResetMeasurement()

	prevWire := r.Engine.DeliveredWire()
	for t := faultWarmup; t < faultEnd; t += faultWindow {
		env.Run(sim.Time(t + faultWindow))
		wire := r.Engine.DeliveredWire()
		gbps := (wire - prevWire) / faultWindow.Seconds() * model.PortRateBps / 1e9
		prevWire = wire
		phase := "baseline"
		switch {
		case t+faultWindow > faultAt+faultOutageLen:
			phase = "recovered"
		case t+faultWindow > faultAt:
			phase = "outage"
		}
		res.AddRow(fmt.Sprintf("%d", int(sim.Duration(t)/sim.Millisecond)),
			fmt.Sprintf("%.2f", gbps), phase)
	}

	res.Note("GPU fails on both nodes at t=%dms, repaired at t=%dms; watchdog %.0fus, backoff %.0fus..%.0fus",
		int(faultAt/sim.Millisecond), int((faultAt+faultOutageLen)/sim.Millisecond),
		r.Cfg.GPUWatchdog.Microseconds(), r.Cfg.GPUBackoff.Microseconds(),
		r.Cfg.GPUBackoffMax.Microseconds())
	res.Note("stalls=%d fallback_chunks=%d carrier_drops=%d degraded=%.0fus",
		r.Stats.GPUStalls, r.Stats.FallbackChunks, r.CarrierDrops(),
		r.DegradedTime().Microseconds())
}

// FaultScenario reproduces the graceful-degradation curve: full CPU+GPU
// throughput, GPU failure on both nodes at t₁, watchdog detection and
// CPU-only plateau, repair at t₂, then recovery — all on the virtual
// clock, byte-identical across runs.
func FaultScenario() *Result { return runSolo(faultScenario) }

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
