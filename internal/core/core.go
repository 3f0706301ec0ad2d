// Package core implements the PacketShader framework of §5: a
// multi-threaded router runtime where worker threads perform packet I/O
// and the pre-/post-shading steps, and one master thread per NUMA node
// owns the node's GPU and runs the shading step. Chunks (batches of
// received packets) flow worker → master input queue → GPU → per-worker
// output queue → worker, with the §5.4 optimizations: chunk pipelining,
// gather/scatter, and concurrent copy & execution, plus the §7
// opportunistic-offloading extension.
package core

import (
	"packetshader/internal/hw/gpu"
	"packetshader/internal/hw/nic"
	"packetshader/internal/model"
	"packetshader/internal/packet"
	"packetshader/internal/pktio"
	"packetshader/internal/sim"
)

// Mode selects CPU-only or GPU-accelerated operation (§6.1: CPU-only
// runs four workers per node; CPU+GPU runs three workers plus a master).
type Mode int

// Operating modes.
const (
	ModeCPUOnly Mode = iota
	ModeGPU
)

// FIBUpdateMode selects how an IPv4 forwarding table accepts live
// route updates (§7). The framework itself never reads it — it is
// consumed by the assembly layer (the packetshader facade and
// cmd/pshader) when the application is built.
type FIBUpdateMode int

// FIB update strategies.
const (
	// FIBStatic builds an immutable table; control-plane route commands
	// are rejected at attach time.
	FIBStatic FIBUpdateMode = iota
	// FIBDynamic patches only the DIR-24-8 cells each update covers,
	// in place (incremental update, §7).
	FIBDynamic
	// FIBRebuild rebuilds the whole table per update batch off the data
	// path and swaps it in atomically (double buffering, §7).
	FIBRebuild
)

// Chunk is a batch of packets fetched together (§5.3): the unit of
// worker↔master exchange and of GPU parallelism.
type Chunk struct {
	Bufs []*packet.Buf
	// OutPorts holds the per-packet forwarding decision filled by
	// post-shading (or pre-shading for CPU-only paths); -1 drops.
	OutPorts []int
	// Worker identifies the owning worker (for the scatter step).
	Worker int
	// State carries app-specific batch arrays between the steps. Chunks
	// are recycled through the router's free list with State intact, so
	// an App may reuse the arrays it finds there — but must reinitialize
	// them completely in PreShade (stale values belong to an unrelated
	// earlier chunk).
	State any

	// GPU transfer/work descriptors, filled by PreShade.
	Threads     int
	InBytes     int
	OutBytes    int
	StreamBytes int

	enqueued  sim.Time // when the chunk entered the master input queue
	fetchedAt sim.Time // when the chunk was assembled from the RX rings
}

// PreResult is what an application's pre-shading step reports.
type PreResult struct {
	// CPUCycles consumed on the worker.
	CPUCycles float64
	// Threads, InBytes, OutBytes, StreamBytes describe the GPU work
	// this chunk contributes to a launch.
	Threads     int
	InBytes     int
	OutBytes    int
	StreamBytes int
}

// App is a packet-processing application plugged into the framework via
// the three §5.1 callbacks plus a CPU-only fallback implementation.
// Functional work must really happen (lookups, crypto); the returned
// cycle counts drive the virtual clock.
type App interface {
	Name() string
	// Kernel returns the GPU cost profile for the shading step.
	Kernel() *gpu.KernelSpec
	// PreShade classifies the chunk and builds the GPU input arrays.
	PreShade(c *Chunk) PreResult
	// RunKernel performs the chunk's functional GPU work (called on
	// the master inside a launch).
	RunKernel(c *Chunk)
	// PostShade applies kernel results to packets and fills OutPorts,
	// returning worker cycles consumed.
	PostShade(c *Chunk) float64
	// CPUWork performs the kernel-equivalent work on the CPU (CPU-only
	// mode and opportunistic offload), returning cycles consumed.
	// PostShade still runs afterwards.
	CPUWork(c *Chunk) float64
}

// Config configures a Router.
type Config struct {
	IO   pktio.Config
	Mode Mode

	// ChunkCap caps packets per chunk (§5.3: "the chunk size is not
	// fixed but only capped").
	ChunkCap int
	// GatherMax bounds chunks gathered into one GPU launch (§5.4).
	GatherMax int
	// Pipelining enables chunk pipelining (§5.4); off, a worker waits
	// for each chunk's results before fetching the next.
	Pipelining bool
	// Streams > 1 enables concurrent copy and execution (§5.4).
	Streams int
	// OpportunisticOffload processes small chunks on the CPU for low
	// latency under light load (§7).
	OpportunisticOffload bool
	// OppThreshold is the chunk size at or below which opportunistic
	// offload keeps work on the CPU. Production runs all use the default
	// (32); it stays a field because tests lower and raise it to put a
	// given load on either side of the threshold.
	OppThreshold int

	// PacketSize and OfferedGbpsPerPort configure the generator-driven
	// workload applied to every port.
	PacketSize         int
	OfferedGbpsPerPort float64

	// FIBUpdate selects the live route-update strategy for table-driven
	// applications (see FIBUpdateMode; read by the assembly layer, not
	// the framework).
	FIBUpdate FIBUpdateMode

	// GPUWatchdog is how long a master waits on a launch before
	// declaring the device stalled and falling back to the CPU path.
	// Zero selects the default.
	GPUWatchdog sim.Duration
	// GPUBackoff is the initial hold-out after a detected stall; each
	// further failed probe doubles it up to GPUBackoffMax. Zero selects
	// the defaults.
	//
	// Production runs all use the three defaults; they stay fields
	// because tests shorten them to reach the back-off doubling and its
	// cap inside horizons of a few simulated milliseconds.
	GPUBackoff    sim.Duration
	GPUBackoffMax sim.Duration
}

// maxInFlight is the chunk-pipelining depth per worker (§5.4): how many
// chunks a worker may have at its master before it waits for results.
const maxInFlight = 4

// Recovery-policy defaults (used when the Config fields are zero).
const (
	defaultGPUWatchdog   = 500 * sim.Microsecond
	defaultGPUBackoff    = 1 * sim.Millisecond
	defaultGPUBackoffMax = 8 * sim.Millisecond
)

// DefaultConfig returns the paper's CPU+GPU configuration at full load.
func DefaultConfig() Config {
	return Config{
		IO:                   pktio.DefaultConfig(),
		Mode:                 ModeGPU,
		ChunkCap:             model.MaxChunkSize,
		GatherMax:            model.MaxGatherChunks,
		Pipelining:           true,
		Streams:              1,
		OpportunisticOffload: false,
		OppThreshold:         32,
		PacketSize:           64,
		OfferedGbpsPerPort:   10,
		GPUWatchdog:          defaultGPUWatchdog,
		GPUBackoff:           defaultGPUBackoff,
		GPUBackoffMax:        defaultGPUBackoffMax,
	}
}

// Stats aggregates framework counters.
type Stats struct {
	ChunksCPU   uint64 // chunks processed on the CPU path
	ChunksGPU   uint64 // chunks through the shading step
	Packets     uint64
	Drops       uint64 // dropped by application decision
	GPULaunches uint64
	// GPUStalls counts launches that hit the master watchdog;
	// FallbackChunks counts chunks the master re-dispatched through the
	// CPU path after a stall (a subset of ChunksCPU).
	GPUStalls      uint64
	FallbackChunks uint64
	// ChunkReuses counts chunks served from the free list rather than
	// allocated — the pooled hot path's effectiveness, and a determinism
	// probe: identical runs must recycle identically.
	ChunkReuses uint64
}

// Router wires the engine, devices, workers and masters together.
type Router struct {
	Env     *sim.Env
	Cfg     Config
	Engine  *pktio.Engine
	App     App
	Devices []*gpu.Device

	workers []*worker
	masters []*master
	Stats   Stats
	obs     *routerObs

	// chunkFree is the router's Chunk free list (deterministic LIFO —
	// sync.Pool would introduce scheduling-dependent reuse): the hot
	// path recycles Chunk headers together with their Bufs/OutPorts
	// backing arrays and the app's State scratch, so steady-state
	// forwarding allocates nothing per chunk. Safe without locking:
	// exactly one sim process runs at a time.
	chunkFree []*Chunk

	start sim.Time
	// measurement baselines (set by ResetMeasurement to exclude warmup
	// transients from throughput figures).
	baseWire float64
	baseRx   uint64
	src      any
}

// New builds the router topology: per node, CoresPerNode-1 workers and
// one master in GPU mode, CoresPerNode workers in CPU-only mode. RX
// queues of each node's ports are spread across that node's workers
// (NUMA-aware; §4.5).
func New(env *sim.Env, cfg Config, app App) *Router {
	workersPerNode := model.CoresPerNode
	if cfg.Mode == ModeGPU {
		workersPerNode = model.CoresPerNode - 1
	}
	// Hand-built Configs may leave the recovery knobs zero; normalize so
	// the watchdog path is always well-defined.
	if cfg.GPUWatchdog <= 0 {
		cfg.GPUWatchdog = defaultGPUWatchdog
	}
	if cfg.GPUBackoff <= 0 {
		cfg.GPUBackoff = defaultGPUBackoff
	}
	if cfg.GPUBackoffMax < cfg.GPUBackoff {
		cfg.GPUBackoffMax = defaultGPUBackoffMax
		if cfg.GPUBackoffMax < cfg.GPUBackoff {
			cfg.GPUBackoffMax = cfg.GPUBackoff
		}
	}
	cfg.IO.QueuesPerPort = workersPerNode
	r := &Router{Env: env, Cfg: cfg, App: app, Engine: pktio.New(env, cfg.IO)}

	for n := 0; n < cfg.IO.Nodes; n++ {
		var m *master
		if cfg.Mode == ModeGPU {
			dev := gpu.New(env, r.Engine.IOHs[n], n)
			r.Devices = append(r.Devices, dev)
			m = &master{
				router: r, node: n, dev: dev,
				inQ:       sim.NewQueue[*Chunk](env, model.InputQueueDepth),
				mail:      newMailbox(env),
				gatherMax: cfg.GatherMax,
			}
			r.masters = append(r.masters, m)
		}
		for wi := 0; wi < workersPerNode; wi++ {
			w := &worker{
				router:   r,
				id:       n*workersPerNode + wi,
				node:     n,
				master:   m,
				outQ:     sim.NewQueue[*Chunk](env, model.OutputQueueDepth),
				mail:     newMailbox(env),
				txBufs:   make([][]*packet.Buf, len(r.Engine.Ports)),
				chunkCap: cfg.ChunkCap,
				opp:      cfg.OpportunisticOffload,
			}
			r.workers = append(r.workers, w)
		}
	}
	r.bindQueues(workersPerNode)
	r.obs = newRouterObs(len(r.workers), cfg.IO.Nodes)
	return r
}

// bindQueues assigns each (port, queue) pair to exactly one worker
// (Figure 8b: virtual interfaces are not shared across cores): queue qi
// of a node-N port goes to node-N worker qi.
func (r *Router) bindQueues(workersPerNode int) {
	for _, port := range r.Engine.Ports {
		for qi := range port.Rx {
			w := r.workers[port.Node*workersPerNode+qi]
			w.ifaces = append(w.ifaces, r.Engine.OpenIface(port.ID, qi, w.node))
		}
	}
}

// SetSource configures the offered load on every RX queue: each port's
// line share is split evenly across its RSS queues.
func (r *Router) SetSource(src nic.FrameSource) {
	r.src = src
	pps := r.Cfg.OfferedGbpsPerPort * 1e9 /
		(float64(model.WireBytes(r.Cfg.PacketSize)) * 8)
	for _, port := range r.Engine.Ports {
		perQueue := pps / float64(len(port.Rx))
		for _, q := range port.Rx {
			q.SetOffered(perQueue, r.Cfg.PacketSize, src)
		}
	}
}

// Source returns the frame source installed by SetSource (nil before).
func (r *Router) Source() any { return r.src }

// Start launches all worker and master processes.
func (r *Router) Start() {
	r.start = r.Env.Now()
	for _, m := range r.masters {
		m := m
		r.Env.Go("master", func(p *sim.Proc) { m.run(p) })
	}
	for _, w := range r.workers {
		w := w
		r.Env.Go("worker", func(p *sim.Proc) { w.run(p) })
	}
}

// ResetMeasurement restarts the measurement window at the current
// virtual time, discarding warmup transients (ring fill, pipeline
// priming) from the reported throughput.
func (r *Router) ResetMeasurement() {
	r.start = r.Env.Now()
	r.baseWire = r.Engine.DeliveredWire()
	rx, _, _, _ := r.Engine.AggregateStats()
	r.baseRx = rx
}

// DeliveredGbps reports aggregate forwarded throughput over the current
// measurement window.
func (r *Router) DeliveredGbps() float64 {
	elapsed := sim.Duration(r.Env.Now() - r.start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return (r.Engine.DeliveredWire() - r.baseWire) / elapsed * 10e9 / 1e9
}

// getChunk returns a recycled Chunk (empty Bufs/OutPorts, previous
// app State kept as scratch for the app to reuse) or a fresh one.
func (r *Router) getChunk() *Chunk {
	if n := len(r.chunkFree); n > 0 {
		c := r.chunkFree[n-1]
		r.chunkFree[n-1] = nil
		r.chunkFree = r.chunkFree[:n-1]
		r.Stats.ChunkReuses++
		return c
	}
	return &Chunk{}
}

// putChunk recycles c after its packets have been transmitted or
// dropped. Bufs and OutPorts are truncated (their backing arrays are the
// point of the recycling); State is deliberately kept so the app can
// reuse its per-chunk scratch arrays — every App must fully reinitialize
// State in PreShade.
func (r *Router) putChunk(c *Chunk) {
	c.Bufs = c.Bufs[:0]
	c.OutPorts = c.OutPorts[:0]
	c.Worker = 0
	c.Threads, c.InBytes, c.OutBytes, c.StreamBytes = 0, 0, 0, 0
	c.enqueued, c.fetchedAt = 0, 0
	r.chunkFree = append(r.chunkFree, c)
}

// InputGbps reports the throughput metric the IPsec experiment uses
// (§6.2.4: input bytes, since ESP grows packets): received wire Gbps of
// packets that were *not* dropped at the RX ring.
func (r *Router) InputGbps() float64 {
	elapsed := sim.Duration(r.Env.Now() - r.start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	rx, _, _, _ := r.Engine.AggregateStats()
	return float64(rx-r.baseRx) * float64(model.WireBytes(r.Cfg.PacketSize)) * 8 / elapsed / 1e9
}
