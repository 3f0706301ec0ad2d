package core

import (
	"testing"

	"packetshader/internal/faults"
	"packetshader/internal/hw/gpu"
	"packetshader/internal/model"
	"packetshader/internal/packet"
	"packetshader/internal/sim"
)

// echoApp forwards every packet to (ingress+1) mod ports with
// configurable CPU costs — a minimal App for framework tests.
type echoApp struct {
	kernel     gpu.KernelSpec
	cpuPerPkt  float64
	kernelRuns int
	ports      int
}

func newEchoApp(ports int) *echoApp {
	return &echoApp{kernel: gpu.KernelIPv4, ports: ports, cpuPerPkt: 100}
}

func (a *echoApp) Name() string            { return "echo" }
func (a *echoApp) Kernel() *gpu.KernelSpec { return &a.kernel }

func (a *echoApp) PreShade(c *Chunk) PreResult {
	for i := range c.OutPorts {
		c.OutPorts[i] = -2
	}
	n := len(c.Bufs)
	return PreResult{CPUCycles: float64(n) * 50, Threads: n, InBytes: 4 * n, OutBytes: 2 * n}
}

func (a *echoApp) RunKernel(c *Chunk) { a.kernelRuns++ }

func (a *echoApp) PostShade(c *Chunk) float64 {
	for i, b := range c.Bufs {
		if c.OutPorts[i] == -2 {
			c.OutPorts[i] = (b.Port + 1) % a.ports
		}
	}
	return float64(len(c.Bufs)) * 20
}

func (a *echoApp) CPUWork(c *Chunk) float64 {
	return float64(len(c.Bufs)) * a.cpuPerPkt
}

// smallConfig is a 1-node, 2-port topology for functional tests.
func smallConfig(mode Mode) Config {
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.IO.Nodes = 1
	cfg.IO.Ports = 2
	cfg.PacketSize = 64
	cfg.OfferedGbpsPerPort = 5
	return cfg
}

type seqSource struct{}

func (seqSource) Fill(b *packet.Buf, port, queue int, seq uint64) {
	b.Data[0] = byte(seq)
}

func runRouter(t *testing.T, cfg Config, app App, window sim.Duration) *Router {
	t.Helper()
	env, r := newRouter(cfg, app)
	r.Start()
	env.Run(sim.Time(window))
	return r
}

// newRouter builds an unstarted router fed by seqSource.
func newRouter(cfg Config, app App) (*sim.Env, *Router) {
	env := sim.NewEnv()
	r := New(env, cfg, app)
	r.SetSource(seqSource{})
	return env, r
}

// arm schedules each event of pl at its offset from time zero through
// ApplyFault, straight from env.At: the control plane that normally
// delivers plans (internal/ctrl) imports core, so core's tests cannot
// use it. Call it before Start, as the controller is attached before
// Start.
func arm(env *sim.Env, r *Router, pl *faults.Plan) {
	for _, e := range pl.Events() {
		env.At(sim.Time(e.At), func() { r.ApplyFault(e) })
	}
}

func TestCPUOnlyModeForwards(t *testing.T) {
	app := newEchoApp(2)
	r := runRouter(t, smallConfig(ModeCPUOnly), app, 2*sim.Millisecond)
	if r.Stats.Packets == 0 {
		t.Fatal("no packets processed")
	}
	if r.Stats.ChunksGPU != 0 {
		t.Error("CPU-only mode used the GPU path")
	}
	if r.Stats.ChunksCPU == 0 {
		t.Error("no CPU chunks")
	}
	_, _, tx, _ := r.Engine.AggregateStats()
	if tx == 0 {
		t.Error("nothing transmitted")
	}
	if g := r.DeliveredGbps(); g < 1 {
		t.Errorf("delivered %.2f Gbps at 10 offered", g)
	}
}

func TestCPUOnlyHasFourWorkersPerNode(t *testing.T) {
	env := sim.NewEnv()
	r := New(env, smallConfig(ModeCPUOnly), newEchoApp(2))
	if len(r.workers) != model.CoresPerNode {
		t.Errorf("workers = %d, want %d", len(r.workers), model.CoresPerNode)
	}
	if len(r.masters) != 0 {
		t.Errorf("masters = %d, want 0", len(r.masters))
	}
}

func TestGPUModeHasThreeWorkersAndMaster(t *testing.T) {
	env := sim.NewEnv()
	r := New(env, smallConfig(ModeGPU), newEchoApp(2))
	if len(r.workers) != model.CoresPerNode-1 {
		t.Errorf("workers = %d, want %d", len(r.workers), model.CoresPerNode-1)
	}
	if len(r.masters) != 1 || len(r.Devices) != 1 {
		t.Errorf("masters = %d devices = %d, want 1/1", len(r.masters), len(r.Devices))
	}
}

func TestGPUModeShadesChunks(t *testing.T) {
	app := newEchoApp(2)
	r := runRouter(t, smallConfig(ModeGPU), app, 2*sim.Millisecond)
	if r.Stats.ChunksGPU == 0 || r.Stats.GPULaunches == 0 {
		t.Fatalf("GPU path unused: %+v", r.Stats)
	}
	if app.kernelRuns == 0 {
		t.Error("kernel function never ran")
	}
	if r.Devices[0].Launches == 0 {
		t.Error("device recorded no launches")
	}
	if g := r.DeliveredGbps(); g < 1 {
		t.Errorf("delivered %.2f Gbps", g)
	}
}

func TestGatherScatterBatchesChunks(t *testing.T) {
	cfg := smallConfig(ModeGPU)
	cfg.OfferedGbpsPerPort = 10 // saturate so the input queue fills
	app := newEchoApp(2)
	r := runRouter(t, cfg, app, 3*sim.Millisecond)
	if r.Stats.GPULaunches == 0 {
		t.Fatal("no launches")
	}
	chunksPerLaunch := float64(r.Stats.ChunksGPU) / float64(r.Stats.GPULaunches)
	if chunksPerLaunch < 1.5 {
		t.Errorf("chunks/launch = %.2f; gather/scatter should batch >1 under load", chunksPerLaunch)
	}
}

func TestNoGatherProcessesOneChunkPerLaunch(t *testing.T) {
	cfg := smallConfig(ModeGPU)
	cfg.GatherMax = 1
	r := runRouter(t, cfg, newEchoApp(2), 2*sim.Millisecond)
	if r.Stats.ChunksGPU != r.Stats.GPULaunches {
		t.Errorf("chunks %d != launches %d with gather disabled",
			r.Stats.ChunksGPU, r.Stats.GPULaunches)
	}
}

func TestOpportunisticOffloadLightLoad(t *testing.T) {
	cfg := smallConfig(ModeGPU)
	cfg.OpportunisticOffload = true
	cfg.OppThreshold = 64
	cfg.OfferedGbpsPerPort = 0.05 // very light: tiny chunks
	r := runRouter(t, cfg, newEchoApp(2), 5*sim.Millisecond)
	if r.Stats.ChunksCPU == 0 {
		t.Error("light load never processed on CPU")
	}
	if r.Stats.ChunksGPU > r.Stats.ChunksCPU/10 {
		t.Errorf("GPU chunks %d vs CPU %d under light load", r.Stats.ChunksGPU, r.Stats.ChunksCPU)
	}
}

func TestOpportunisticOffloadHeavyLoadUsesGPU(t *testing.T) {
	cfg := smallConfig(ModeGPU)
	cfg.OpportunisticOffload = true
	cfg.OppThreshold = 16
	cfg.OfferedGbpsPerPort = 10
	r := runRouter(t, cfg, newEchoApp(2), 3*sim.Millisecond)
	if r.Stats.ChunksGPU == 0 {
		t.Error("heavy load never reached the GPU")
	}
}

func TestDropsCounted(t *testing.T) {
	app := newEchoApp(2)
	cfg := smallConfig(ModeCPUOnly)
	dropApp := &droppingApp{echoApp: app}
	r := runRouter(t, cfg, dropApp, 2*sim.Millisecond)
	if r.Stats.Drops == 0 {
		t.Error("no drops recorded")
	}
	_, _, tx, _ := r.Engine.AggregateStats()
	if tx != 0 {
		t.Errorf("dropping app transmitted %d packets", tx)
	}
	if err := r.Ledger().Check(); err != nil {
		t.Error(err)
	}
}

type droppingApp struct{ *echoApp }

func (a *droppingApp) PostShade(c *Chunk) float64 {
	for i := range c.OutPorts {
		c.OutPorts[i] = -1
	}
	return 0
}

func TestPerQueueOrderPreserved(t *testing.T) {
	for _, mode := range []Mode{ModeCPUOnly, ModeGPU} {
		env := sim.NewEnv()
		cfg := smallConfig(mode)
		r := New(env, cfg, newEchoApp(2))
		r.SetSource(seqSource{})
		type key struct{ port, queue int }
		last := map[key]sim.Time{}
		violations := 0
		for _, p := range r.Engine.Ports {
			p.Tx.OnComplete = func(b *packet.Buf, at sim.Time) {
				k := key{b.Port, b.Queue}
				if b.GenAt < last[k] {
					violations++
				}
				last[k] = b.GenAt
			}
		}
		r.Start()
		env.Run(sim.Time(3 * sim.Millisecond))
		if violations > 0 {
			t.Errorf("mode %v: %d per-queue order violations (§5.3 FIFO broken)", mode, violations)
		}
		if len(last) == 0 {
			t.Errorf("mode %v: no completions observed", mode)
		}
	}
}

func TestPipeliningImprovesThroughputWhenGPUSlow(t *testing.T) {
	// With a slow kernel and no pipelining, workers idle while the
	// master shades; pipelining overlaps the two (§5.4, Figure 10a).
	mk := func(pipeline bool) float64 {
		cfg := smallConfig(ModeGPU)
		cfg.Pipelining = pipeline
		cfg.OfferedGbpsPerPort = 10
		app := newEchoApp(2)
		app.kernel = gpu.KernelIPv6 // heavier kernel
		r := runRouter(t, cfg, app, 5*sim.Millisecond)
		return r.DeliveredGbps()
	}
	with, without := mk(true), mk(false)
	if with <= without {
		t.Errorf("pipelining %.2f Gbps ≤ no pipelining %.2f", with, without)
	}
}

func TestWorkersRetireWithoutLoad(t *testing.T) {
	env := sim.NewEnv()
	cfg := smallConfig(ModeCPUOnly)
	r := New(env, cfg, newEchoApp(2))
	// No SetSource: queues have no offered load.
	r.Start()
	end := env.Run(sim.Time(sim.Second))
	if end > sim.Time(10*sim.Microsecond) {
		t.Errorf("idle router kept the clock running until %v", end)
	}
}

func TestInputGbpsMetric(t *testing.T) {
	cfg := smallConfig(ModeCPUOnly)
	r := runRouter(t, cfg, newEchoApp(2), 2*sim.Millisecond)
	in := r.InputGbps()
	if in <= 0 || in > 2*cfg.OfferedGbpsPerPort*float64(cfg.IO.Ports) {
		t.Errorf("input metric %.2f Gbps implausible", in)
	}
}

// TestPacketConservation checks the pipeline never loses or duplicates
// packets: every fetched packet is transmitted, dropped by the app, or
// still in flight inside the bounded pipeline when the clock stops.
func TestPacketConservation(t *testing.T) {
	for _, mode := range []Mode{ModeCPUOnly, ModeGPU} {
		for _, offered := range []float64{0.5, 5, 10} {
			cfg := smallConfig(mode)
			cfg.OfferedGbpsPerPort = offered
			app := newEchoApp(2)
			r := runRouter(t, cfg, app, 3*sim.Millisecond)
			rx, _, tx, txDropped := r.Engine.AggregateStats()
			accounted := tx + txDropped + r.Stats.Drops
			if accounted > rx {
				t.Fatalf("mode %v offered %v: accounted %d > fetched %d (duplication)",
					mode, offered, accounted, rx)
			}
			// In-flight bound: chunks queued in the pipeline plus one
			// in-progress chunk per worker and per master.
			workers := len(r.workers)
			maxInflight := uint64((workers*(model.MaxInFlightChunks+2) +
				len(r.masters)*cfg.GatherMax + len(r.masters)*model.InputQueueDepth) *
				cfg.ChunkCap)
			if rx-accounted > maxInflight {
				t.Errorf("mode %v offered %v: %d packets unaccounted (> pipeline bound %d)",
					mode, offered, rx-accounted, maxInflight)
			}
		}
	}
}

// TestBufPoolBoundedUnderLoad: the buffer pool must not grow without
// bound (the huge-packet-buffer property at the system level).
func TestBufPoolBoundedUnderLoad(t *testing.T) {
	cfg := smallConfig(ModeGPU)
	cfg.OfferedGbpsPerPort = 10
	r := runRouter(t, cfg, newEchoApp(2), 5*sim.Millisecond)
	// Bound: pipeline capacity (chunks in flight) × chunk size plus the
	// per-queue fetch working set.
	bound := (len(r.workers)*(model.MaxInFlightChunks+2) + model.InputQueueDepth + model.OutputQueueDepth) * cfg.ChunkCap * 4
	if r.Engine.Pool.Allocs > bound {
		t.Errorf("pool allocated %d cells, bound %d: leak through the pipeline", r.Engine.Pool.Allocs, bound)
	}
}

func TestGPUOutageFallsBackAndRecovers(t *testing.T) {
	app := newEchoApp(2)
	cfg := smallConfig(ModeGPU)
	cfg.GPUWatchdog = 100 * sim.Microsecond
	cfg.GPUBackoff = 500 * sim.Microsecond
	cfg.GPUBackoffMax = 2 * sim.Millisecond
	env, r := newRouter(cfg, app)
	arm(env, r, faults.NewPlan().GPUOutage(0, 2*sim.Millisecond, 3*sim.Millisecond))
	r.Start()
	env.Run(sim.Time(10 * sim.Millisecond))

	if r.Stats.GPUStalls == 0 {
		t.Fatal("watchdog never detected the stall")
	}
	if r.Stats.FallbackChunks == 0 {
		t.Error("master never re-dispatched stalled chunks on the CPU")
	}
	if r.Stats.ChunksCPU == 0 {
		t.Error("workers never degraded to the CPU path")
	}
	if r.masters[0].gpuOut {
		t.Error("master still holds the GPU out after repair")
	}
	deg := r.DegradedTime()
	// Outage spans from detection (~2ms + watchdog) until the first
	// successful probe after the 5ms repair; backoff can push that probe
	// past repair, but never beyond repair + backoff cap + a launch.
	if deg < 2*sim.Millisecond || deg > 7*sim.Millisecond {
		t.Errorf("degraded time = %v, want within (2ms, 7ms)", deg)
	}
	// The GPU path must be live again: launches strictly after recovery.
	if r.Stats.GPULaunches == 0 || r.Stats.ChunksGPU == 0 {
		t.Error("no GPU work at all despite recovery")
	}
	if r.Devices[0].Stalls != r.Stats.GPUStalls {
		t.Errorf("device stalls %d != router stalls %d",
			r.Devices[0].Stalls, r.Stats.GPUStalls)
	}
}

func TestGPUOutageThroughputStaysUp(t *testing.T) {
	// Delivered throughput during the outage must stay within the
	// CPU-only envelope, not collapse to zero — the graceful part.
	app := newEchoApp(2)
	base := smallConfig(ModeGPU)
	base.GPUWatchdog = 100 * sim.Microsecond
	base.GPUBackoff = 1 * sim.Millisecond

	cpuOnly := runRouter(t, smallConfig(ModeCPUOnly), app, 6*sim.Millisecond)
	envelope := cpuOnly.DeliveredGbps()

	cfg := base
	env, r := newRouter(cfg, newEchoApp(2))
	arm(env, r, faults.NewPlan().GPUOutage(0, 1*sim.Millisecond, 20*sim.Millisecond))
	r.Start()
	env.Run(sim.Time(3 * sim.Millisecond)) // fail at 1ms, detect, degrade
	r.ResetMeasurement()
	env.Run(sim.Time(6 * sim.Millisecond)) // pure outage window
	got := r.DeliveredGbps()
	if got <= 0 {
		t.Fatal("throughput collapsed to zero during GPU outage")
	}
	if got > envelope*1.10 {
		t.Errorf("outage throughput %.2f Gbps exceeds CPU-only envelope %.2f", got, envelope)
	}
}

func TestLinkFlapDropsThenResumes(t *testing.T) {
	app := newEchoApp(2)
	cfg := smallConfig(ModeCPUOnly)
	env, r := newRouter(cfg, app)
	arm(env, r, faults.NewPlan().LinkFlap(1, 1*sim.Millisecond, 1*sim.Millisecond))
	r.Start()
	env.Run(sim.Time(2 * sim.Millisecond)) // carrier down 1ms..2ms
	drops := r.CarrierDrops()
	tx1 := r.Engine.Ports[1].Tx.Stats.Packets
	if drops == 0 {
		t.Fatal("no carrier drops while port 1 was down")
	}
	env.Run(sim.Time(4 * sim.Millisecond))
	if got := r.CarrierDrops(); got != drops {
		t.Errorf("carrier drops kept growing after restore: %d -> %d", drops, got)
	}
	if r.Engine.Ports[1].Tx.Stats.Packets <= tx1 {
		t.Error("port 1 TX did not resume after carrier restore")
	}
}

func TestWorkersSurviveFullCarrierOutage(t *testing.T) {
	// With every port down, TimeToPacket must keep reporting alive so
	// workers poll instead of retiring permanently.
	app := newEchoApp(2)
	cfg := smallConfig(ModeCPUOnly)
	env, r := newRouter(cfg, app)
	arm(env, r, faults.NewPlan().
		LinkFlap(0, 1*sim.Millisecond, 1*sim.Millisecond).
		LinkFlap(1, 1*sim.Millisecond, 1*sim.Millisecond))
	r.Start()
	env.Run(sim.Time(2 * sim.Millisecond))
	fetched := r.Stats.Packets
	env.Run(sim.Time(4 * sim.Millisecond))
	if r.Stats.Packets <= fetched {
		t.Error("workers retired during the outage and never resumed")
	}
}

func TestRxDropBurstAccounted(t *testing.T) {
	app := newEchoApp(2)
	cfg := smallConfig(ModeCPUOnly)
	env, r := newRouter(cfg, app)
	arm(env, r, faults.NewPlan().RxDropBurst(0, 1*sim.Millisecond, 500*sim.Microsecond))
	r.Start()
	env.Run(sim.Time(3 * sim.Millisecond))
	_, rxDropped, _, _ := r.Engine.AggregateStats()
	if rxDropped == 0 {
		t.Error("drop burst produced no RX drops")
	}
}

func TestFaultPlanIgnoredGracefullyInCPUMode(t *testing.T) {
	// GPU faults target devices that do not exist in CPU-only mode; the
	// events must change nothing, not crash.
	app := newEchoApp(2)
	cfg := smallConfig(ModeCPUOnly)
	env, r := newRouter(cfg, app)
	arm(env, r, faults.NewPlan().
		GPUOutage(0, 1*sim.Millisecond, 1*sim.Millisecond).
		PCIeRetrain(1, 1*sim.Millisecond, 1*sim.Millisecond))
	r.Start()
	env.Run(sim.Time(3 * sim.Millisecond))
	if r.Stats.GPUStalls != 0 || r.DegradedTime() != 0 {
		t.Error("CPU-only run recorded GPU fault effects")
	}
	if r.Stats.Packets == 0 {
		t.Error("router stopped forwarding")
	}
}

func TestFaultRunsDeterministic(t *testing.T) {
	run := func() (Stats, uint64, sim.Duration) {
		cfg := smallConfig(ModeGPU)
		cfg.GPUWatchdog = 100 * sim.Microsecond
		env, r := newRouter(cfg, newEchoApp(2))
		arm(env, r, faults.NewPlan().
			GPUOutage(0, 1*sim.Millisecond, 2*sim.Millisecond).
			LinkFlap(1, 2*sim.Millisecond, 500*sim.Microsecond))
		r.Start()
		env.Run(sim.Time(6 * sim.Millisecond))
		return r.Stats, r.CarrierDrops(), r.DegradedTime()
	}
	s1, c1, d1 := run()
	s2, c2, d2 := run()
	if s1 != s2 || c1 != c2 || d1 != d2 {
		t.Errorf("identical fault runs diverged:\n%+v %d %v\n%+v %d %v",
			s1, c1, d1, s2, c2, d2)
	}
}

// TestRecycledChunksDontLeakStalePorts pins the OutPorts recycling
// contract: fetchChunk reuses chunk OutPorts arrays WITHOUT clearing
// them (every App's PreShade writes every slot). The free list is
// pre-poisoned with out-of-range port numbers; if a stale slot ever
// survived to transmission, Engine.SendCost would index a nonexistent port
// and panic, and the bogus ports would corrupt forwarding.
func TestRecycledChunksDontLeakStalePorts(t *testing.T) {
	env := sim.NewEnv()
	r := New(env, smallConfig(ModeCPUOnly), newEchoApp(2))
	for i := 0; i < 16; i++ {
		c := &Chunk{OutPorts: make([]int, model.MaxChunkSize)}
		for j := range c.OutPorts {
			c.OutPorts[j] = 0x7ead // far beyond any real port
		}
		r.putChunk(c)
	}
	r.SetSource(seqSource{})
	r.Start()
	env.Run(sim.Time(2 * sim.Millisecond))
	if r.Stats.ChunkReuses == 0 {
		t.Fatal("free list never used; test exercised nothing")
	}
	if _, _, tx, _ := r.Engine.AggregateStats(); tx == 0 {
		t.Error("nothing transmitted")
	}
}

// TestLedgerCheckNamesCounts: an unbalanced ledger is an error that
// names every count, and a balanced one is not.
func TestLedgerCheckNamesCounts(t *testing.T) {
	ok := Ledger{Fetched: 10, Transmitted: 4, TxRingDrops: 1, CarrierDrops: 2, AppDrops: 1, InFlight: 2, RxRingDrops: 7}
	if err := ok.Check(); err != nil {
		t.Fatalf("balanced ledger: %v", err)
	}
	bad := ok
	bad.AppDrops++ // a drop counted whose Buf never went back to the pool
	err := bad.Check()
	if err == nil {
		t.Fatal("unbalanced ledger passed")
	}
	const want = "core: packet ledger does not balance: fetched 10, but transmitted 4 + tx-ring drops 1 + carrier drops 2 + app drops 2 + in flight 2 = 11"
	if got := err.Error(); got != want {
		t.Errorf("error %q, want %q", got, want)
	}
}

// TestRouterRunsAsTasks: the workers and masters are sim tasks, so a
// router's Env holds no goroutine process. Every process wake-up is a
// task step, and a fault plan's events stay callbacks: in GPU mode, CPU
// mode and with opportunistic offload, and through a GPU outage with
// its CPU fallback beside a TX carrier loss.
func TestRouterRunsAsTasks(t *testing.T) {
	opp := smallConfig(ModeGPU)
	opp.OpportunisticOffload = true
	opp.OfferedGbpsPerPort = 0.5
	outage := smallConfig(ModeGPU)
	outage.GPUWatchdog = 100 * sim.Microsecond
	outage.GPUBackoff = 500 * sim.Microsecond
	cases := []struct {
		name string
		cfg  Config
		plan *faults.Plan
		ran  func(r *Router) bool // the case took the path it names
	}{
		{"gpu", smallConfig(ModeGPU), nil, func(r *Router) bool { return r.Stats.ChunksGPU > 0 }},
		{"cpu", smallConfig(ModeCPUOnly), nil, func(r *Router) bool { return r.Stats.ChunksCPU > 0 }},
		{"opportunistic", opp, nil, func(r *Router) bool { return r.Stats.ChunksCPU > 0 }},
		{"outage", outage, faults.NewPlan().
			GPUOutage(0, 1*sim.Millisecond, 2*sim.Millisecond).
			LinkFlap(1, 2*sim.Millisecond, 1*sim.Millisecond),
			func(r *Router) bool { return r.Stats.FallbackChunks > 0 && r.CarrierDrops() > 0 }},
	}
	for _, c := range cases {
		env, r := newRouter(c.cfg, newEchoApp(2))
		events := 0
		if c.plan != nil {
			arm(env, r, c.plan)
			events = c.plan.Len()
		}
		r.Start()
		env.Run(sim.Time(6 * sim.Millisecond))
		st := env.Stats()
		if st.HandOffs != 0 || st.SelfResumes != 0 || st.TaskSteps == 0 || st.Callbacks != uint64(events) {
			t.Errorf("%s: %d hand-offs, %d self-resumes, %d task steps, %d callbacks; want only task steps and the plan's %d callbacks",
				c.name, st.HandOffs, st.SelfResumes, st.TaskSteps, st.Callbacks, events)
		}
		if !c.ran(r) {
			t.Errorf("%s: the run did not take its path: %+v", c.name, r.Stats)
		}
		env.Close()
	}
}
