// Package packetshader is a faithful Go reproduction of "PacketShader:
// a GPU-Accelerated Software Router" (Han, Jang, Park, Moon — SIGCOMM
// 2010), built over a calibrated virtual-time model of the paper's
// testbed (2× Xeon X5550, 2× GTX480, 8× 10GbE, dual-IOH board).
//
// This top-level package is the library facade: it assembles the four
// evaluated applications (IPv4/IPv6 forwarding, OpenFlow switching,
// IPsec tunneling) into ready-to-run router instances and reports the
// paper's metrics. The building blocks live under internal/: the
// discrete-event engine (internal/sim), hardware models
// (internal/hw/...), the packet I/O engine (internal/pktio), the
// framework (internal/core), the applications (internal/apps), and the
// table/figure reproductions (internal/experiments).
//
// Quick start:
//
//	inst, _ := packetshader.IPv4(100000, 42, packetshader.WithMode(packetshader.ModeGPU))
//	defer inst.Close()
//	inst.Run(5 * packetshader.Millisecond) // warm-up
//	report := inst.Run(20 * packetshader.Millisecond)
//	fmt.Printf("%.1f Gbps\n", report.DeliveredGbps)
//
// IPv4, IPv6, IPsec and OpenFlowSwitch assemble the paper's four
// applications; New takes any core.App and Source.
package packetshader

import (
	"errors"
	"fmt"
	"io"

	"packetshader/internal/apps"
	"packetshader/internal/core"
	"packetshader/internal/ctrl"
	"packetshader/internal/faults"
	"packetshader/internal/model"
	"packetshader/internal/obs"
	"packetshader/internal/openflow"
	"packetshader/internal/packet"
	"packetshader/internal/pktgen"
	"packetshader/internal/route"
	"packetshader/internal/sim"

	lookupv4 "packetshader/internal/lookup/ipv4"
	lookupv6 "packetshader/internal/lookup/ipv6"
)

// Re-exported virtual-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Duration is virtual time (picoseconds).
type Duration = sim.Duration

// Time is an instant on the virtual clock.
type Time = sim.Time

// Mode selects CPU-only or GPU-accelerated operation.
type Mode = core.Mode

// Operating modes (§6.1: CPU-only runs four workers per NUMA node;
// CPU+GPU runs three workers plus a GPU master).
const (
	ModeCPUOnly = core.ModeCPUOnly
	ModeGPU     = core.ModeGPU
)

// NumPorts is the testbed's port count (8 × 10GbE).
const NumPorts = model.NumPorts

// Source synthesizes the frames the RX queues receive. It is the
// facade's name for the NIC-layer frame source: Fill writes the seq-th
// frame of (port, queue) into b.Data (already sized to the configured
// packet size) and sets b.Hash. The built-in generators in
// internal/pktgen implement it; custom workloads implement it directly
// (see examples/openflowswitch).
type Source interface {
	Fill(b *packet.Buf, port, queue int, seq uint64)
}

// Config is what the options resolve to: the router configuration plus
// the fault plan the constructor hands to the controller. It is exported
// so that a caller inside the module can write an Option literal for a
// field no With* option covers (the packet-I/O ablations do).
type Config struct {
	core.Config
	faults *faults.Plan
}

// Option tweaks a router configuration. A constructor may apply an
// option more than once (each time to a fresh Config), so an option
// only sets fields.
type Option func(*Config)

// WithMode selects CPU-only or CPU+GPU operation.
func WithMode(m Mode) Option { return func(c *Config) { c.Mode = m } }

// WithPacketSize sets the generated packet size (64-1514 bytes).
func WithPacketSize(bytes int) Option {
	return func(c *Config) { c.PacketSize = bytes }
}

// WithOfferedGbps sets the offered load per port.
func WithOfferedGbps(g float64) Option {
	return func(c *Config) { c.OfferedGbpsPerPort = g }
}

// WithStreams enables concurrent copy and execution with n CUDA
// streams (§5.4; the paper uses it for IPsec).
func WithStreams(n int) Option { return func(c *Config) { c.Streams = n } }

// WithOpportunisticOffload keeps small chunks on the CPU for low
// latency under light load (§7).
func WithOpportunisticOffload() Option {
	return func(c *Config) { c.OpportunisticOffload = true }
}

// WithChunkCap caps the number of packets per chunk (§5.3).
func WithChunkCap(n int) Option { return func(c *Config) { c.ChunkCap = n } }

// WithoutPipelining disables chunk pipelining (§5.4 ablation).
func WithoutPipelining() Option { return func(c *Config) { c.Pipelining = false } }

// WithGatherMax bounds how many chunks one GPU launch gathers (§5.4).
func WithGatherMax(n int) Option { return func(c *Config) { c.GatherMax = n } }

// FIBUpdateMode selects the live route-update strategy (§7) for
// IPv4 instances: see WithFIBUpdate.
type FIBUpdateMode = core.FIBUpdateMode

// FIB update strategies.
const (
	// FIBStatic (the default) builds an immutable table; control-plane
	// route commands are rejected.
	FIBStatic = core.FIBStatic
	// FIBDynamic patches affected DIR-24-8 cells in place per update.
	FIBDynamic = core.FIBDynamic
	// FIBRebuild rebuilds the whole table per batch and swaps it in.
	FIBRebuild = core.FIBRebuild
)

// WithFIBUpdate selects how the IPv4 instance's forwarding table
// accepts live route updates from a control script (Instance.Control).
// Only IPv4 consumes it: the other applications have no route table
// (IPsec, OpenFlow) or no dynamic lookup structure yet (IPv6), so their
// instances reject route commands regardless of mode.
func WithFIBUpdate(m FIBUpdateMode) Option {
	return func(c *Config) { c.FIBUpdate = m }
}

// WithFaults merges a full fault plan (see internal/faults: link flaps,
// RX drop bursts, GPU outages, PCIe retrains, or a seeded Random mix)
// into the instance. The constructor compiles the merged plan to a
// control script (ctrl.FromPlan) and attaches it, so offsets count from
// the router's start and a fault aimed at a port or node the router
// does not have fails the constructor. Options compose: multiple
// WithFaults/WithGPUOutage/WithLinkFlap options merge into one plan.
func WithFaults(p *faults.Plan) Option {
	return func(c *Config) {
		if c.faults == nil {
			c.faults = faults.NewPlan()
		}
		c.faults.Merge(p)
	}
}

// WithGPUOutage schedules a GPU failure on every node at offset at from
// the router's start, repaired after dur. The master watchdog degrades
// to the CPU path for the outage (see Report.DegradedTime).
func WithGPUOutage(at, dur Duration) Option {
	pl := faults.NewPlan()
	for n := 0; n < model.NumNodes; n++ {
		pl.GPUOutage(n, at, dur)
	}
	return WithFaults(pl)
}

// WithLinkFlap schedules carrier loss on one port at offset at from the
// router's start, restored after dur. Packets forwarded to the port
// during the flap are dropped and counted in Report.DroppedPackets.
func WithLinkFlap(port int, at, dur Duration) Option {
	return WithFaults(faults.NewPlan().LinkFlap(port, at, dur))
}

// Instance is an assembled router plus its workload generator and
// latency sink, ready to Run. Close it when done.
type Instance struct {
	Env    *sim.Env
	Router *core.Router
	Sink   *pktgen.LatencySink

	started bool
	fib     ctrl.FIBApplier // nil unless built with an updatable FIB
	reg     *obs.Registry   // set by EnableObs, snapshotted by metrics commands
	tap     func(b *packet.Buf, at sim.Time)
}

// Report summarizes one run.
type Report struct {
	// DeliveredGbps is forwarded throughput in the paper's wire metric
	// (24B Ethernet overhead included).
	DeliveredGbps float64
	// InputGbps is accepted input throughput (the IPsec metric, §6.2.4).
	InputGbps float64
	// Latency statistics in microseconds (zero if nothing completed).
	MeanLatencyUs float64
	P99LatencyUs  float64
	// DroppedPackets is the cumulative drop count from every cause: RX
	// ring overflow, TX ring overflow, carrier loss, and application
	// drop decisions.
	DroppedPackets uint64
	// DegradedTime is the cumulative virtual time any GPU was held out
	// by the master watchdog (zero in fault-free and CPU-only runs).
	DegradedTime Duration
	// Stats are the framework counters.
	Stats core.Stats
}

// resolve applies opts to the default configuration and validates the
// result.
func resolve(opts []Option) (Config, error) {
	cfg := Config{Config: core.DefaultConfig()}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg, validate(&cfg.Config)
}

// New assembles a router running app, fed by src: the one place a
// router is stood up — the typed constructors below, the paper's
// figures (internal/experiments) and the examples all come through
// here. A nil src is legal and means blank frames at the offered rate;
// a nil app is an error. Fault targets are checked last, by the
// controller, against the router that was actually built.
func New(app core.App, src Source, opts ...Option) (*Instance, error) {
	if app == nil {
		return nil, errors.New("packetshader: nil application")
	}
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	r := core.New(env, cfg.Config, app)
	sink := pktgen.NewLatencySink()
	inst := &Instance{Env: env, Router: r, Sink: sink}
	for _, p := range r.Engine.Ports {
		p.Tx.OnComplete = func(b *packet.Buf, at sim.Time) {
			sink.Observe(b, at)
			if inst.tap != nil {
				inst.tap(b, at)
			}
		}
	}
	r.SetSource(src)
	// The fault options are sugar over the controller: the merged plan
	// is one more script, attached at virtual time zero.
	if _, err := ctrl.Attach(env, r, ctrl.FromPlan(cfg.faults), ctrl.Config{}); err != nil {
		return nil, err
	}
	return inst, nil
}

// validate rejects configurations the models are not calibrated for.
func validate(cfg *core.Config) error {
	switch {
	case cfg.PacketSize < 64 || cfg.PacketSize > 1514:
		return fmt.Errorf("packetshader: packet size %d outside 64..1514", cfg.PacketSize)
	case cfg.OfferedGbpsPerPort < 0:
		return fmt.Errorf("packetshader: negative offered load %g Gbps", cfg.OfferedGbpsPerPort)
	case cfg.Streams < 1:
		return fmt.Errorf("packetshader: streams %d < 1", cfg.Streams)
	case cfg.ChunkCap < 1:
		return fmt.Errorf("packetshader: chunk cap %d < 1", cfg.ChunkCap)
	case cfg.GatherMax < 1:
		return fmt.Errorf("packetshader: gather max %d < 1", cfg.GatherMax)
	case cfg.FIBUpdate < core.FIBStatic || cfg.FIBUpdate > core.FIBRebuild:
		return fmt.Errorf("packetshader: unknown FIB update mode %d", cfg.FIBUpdate)
	}
	return nil
}

// Must unwraps a constructor result, panicking on error — for examples
// and tests where a config error is a programming bug.
func Must(inst *Instance, err error) *Instance {
	if err != nil {
		panic(err)
	}
	return inst
}

// IPv4 assembles an IPv4 forwarder with a synthetic BGP table of the
// given size (§6.2.1 uses 282,797 prefixes — route.BGPTableSize). The
// table honors WithFIBUpdate: FIBDynamic and FIBRebuild instances
// accept live route commands through Instance.Control.
func IPv4(prefixes int, seed int64, opts ...Option) (*Instance, error) {
	cfg, err := resolve(opts) // before the table build: a bad option costs nothing
	if err != nil {
		return nil, err
	}
	entries := route.GenerateBGPTable(prefixes, 64, seed)
	app := &apps.IPv4Fwd{NumPorts: model.NumPorts}
	var fib ctrl.FIBApplier
	switch cfg.FIBUpdate {
	case core.FIBDynamic:
		dyn, err := lookupv4.NewDynamic(entries)
		if err != nil {
			return nil, err
		}
		app.Table = &dyn.Table
		fib = &ctrl.DynamicFIB{T: dyn}
	case core.FIBRebuild:
		rebuild, err := ctrl.NewRebuildFIB(entries, func(t *lookupv4.Table) { app.Table = t })
		if err != nil {
			return nil, err
		}
		app.Table = rebuild.FIB.Active()
		fib = rebuild
	default: // FIBStatic: route commands are rejected at Control
		if app.Table, err = lookupv4.Build(entries); err != nil {
			return nil, err
		}
	}
	inst, err := New(app, &pktgen.UDP4Source{Size: cfg.PacketSize, Seed: uint64(seed), Table: entries}, opts...)
	if err != nil {
		return nil, err
	}
	inst.fib = fib
	return inst, nil
}

// IPv6 assembles an IPv6 forwarder with n random prefixes (§6.2.2 uses
// 200,000).
func IPv6(prefixes int, seed int64, opts ...Option) (*Instance, error) {
	cfg, err := resolve(opts) // before the table build, as in IPv4
	if err != nil {
		return nil, err
	}
	entries := route.GenerateIPv6Table(prefixes, 64, seed)
	return New(&apps.IPv6Fwd{Table: lookupv6.Build(entries), NumPorts: model.NumPorts},
		&pktgen.UDP6Source{Size: cfg.PacketSize, Seed: uint64(seed), Table: entries}, opts...)
}

// IPsec assembles the ESP tunnel gateway (§6.2.4), one SA per port.
func IPsec(seed int64, opts ...Option) (*Instance, error) {
	cfg, _ := resolve(opts) // for the generator's packet size; New reports the error
	return New(apps.NewIPsecGW(model.NumPorts), &pktgen.UDP4Source{Size: cfg.PacketSize, Seed: uint64(seed)}, opts...)
}

// OpenFlowSwitch wraps a caller-configured switch data path (§6.2.3)
// fed by a caller-supplied frame source.
func OpenFlowSwitch(sw *openflow.Switch, src Source, opts ...Option) (*Instance, error) {
	return New(apps.NewOFSwitch(sw, model.NumPorts), src, opts...)
}

// EnableObs installs a tracer and/or metrics registry on the router
// (either may be nil). It must be called before the first Run; the
// registry also becomes the source for a control script's `metrics`
// command.
func (i *Instance) EnableObs(tr *obs.Tracer, reg *obs.Registry) {
	i.Router.EnableObs(tr, reg)
	i.reg = reg
}

// TapTx registers an extra observer called for every transmitted frame
// (after the latency sink) — the hook pcap capture uses.
func (i *Instance) TapTx(fn func(b *packet.Buf, at Time)) { i.tap = fn }

// Control attaches a management script to the instance: every command
// is scheduled on the virtual clock at its offset from now, so the
// following Run executes the script deterministically mid-traffic.
// Command responses stream to out (nil discards them); route commands
// require an instance built with WithFIBUpdate(FIBDynamic) or
// WithFIBUpdate(FIBRebuild). The returned controller reports what each
// command did once the run has advanced past it.
func (i *Instance) Control(script *ctrl.Script, out io.Writer) (*ctrl.Controller, error) {
	return ctrl.Attach(i.Env, i.Router, script, ctrl.Config{Out: out, FIB: i.fib, Reg: i.reg})
}

// Close releases the goroutines of the router's workers and masters,
// which otherwise stay parked for the life of the process. Like
// Env.Close it is idempotent and must not be called during Run; a
// closed instance cannot Run again, but its reports, counters and sink
// stay readable.
func (i *Instance) Close() { i.Env.Close() }

// Run starts the router (first call), advances virtual time by d, and
// reports. Repeated Run calls continue the same simulation; the
// measurement window restarts each call, so a warmup Run followed by a
// measurement Run excludes transients.
func (i *Instance) Run(d Duration) Report {
	if !i.started {
		i.Router.Start()
		i.started = true
	}
	i.Router.ResetMeasurement()
	i.Env.Run(i.Env.Now() + sim.Time(d))
	_, rxDropped, _, txDropped := i.Router.Engine.AggregateStats()
	return Report{
		DeliveredGbps:  i.Router.DeliveredGbps(),
		InputGbps:      i.Router.InputGbps(),
		MeanLatencyUs:  i.Sink.MeanMicros(),
		P99LatencyUs:   i.Sink.PercentileMicros(0.99),
		DroppedPackets: rxDropped + txDropped + i.Router.Stats.Drops,
		DegradedTime:   i.Router.DegradedTime(),
		Stats:          i.Router.Stats,
	}
}
