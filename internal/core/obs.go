package core

import (
	"strconv"

	"packetshader/internal/obs"
)

// routerObs holds the router's observability handles. A Router always
// carries one; until EnableObs installs a tracer/registry the handles
// are nil and therefore inert (the obs package's nil fast path), so the
// worker/master hot loops instrument unconditionally with no branches.
type routerObs struct {
	tr  *obs.Tracer
	reg *obs.Registry

	// workerTracks is indexed by worker id, masterTracks by NUMA node.
	// Zero (the null track) until EnableObs runs.
	workerTracks []obs.TrackID
	masterTracks []obs.TrackID

	// faultTrack carries the hardware-command instants (TraceFault)
	// plus nothing else, so fault timelines read separately from the
	// pipeline.
	faultTrack obs.TrackID

	// chunkLatency measures fetch-complete → TX-handoff per chunk;
	// gpuWait measures time spent in the master input queue (§5.4
	// pipelining visibility); chunkSize and launchThreads record batch
	// sizes, the paper's central latency/throughput dial (Figure 2).
	// fallbackChunk records the sizes of chunks re-dispatched through
	// the CPU path after a GPU stall.
	chunkLatency  *obs.Histogram
	gpuWait       *obs.Histogram
	chunkSize     *obs.Histogram
	launchThreads *obs.Histogram
	fallbackChunk *obs.Histogram
	// stages[i] is the residence of each completed chunk in stage i,
	// core.stage.<stageNames[i]>; their sums are Router.Stages.Time.
	stages [NumStages]*obs.Histogram
}

// stageNames name the per-stage histograms, in stage order.
var stageNames = [NumStages]string{"rx_fetch", "pre_shade", "queue", "work", "output", "post_shade", "tx"}

func newRouterObs(workers, nodes int) *routerObs {
	return &routerObs{
		workerTracks: make([]obs.TrackID, workers),
		masterTracks: make([]obs.TrackID, nodes),
	}
}

// MetricsReporter is implemented by applications that export their own
// counters (e.g. the IPv4 slow-path count) into a metrics registry at
// dump time.
type MetricsReporter interface {
	ReportMetrics(reg *obs.Registry)
}

// EnableObs attaches a span tracer and/or metrics registry to the
// router. Either may be nil. Must be called before Start so that the
// per-thread tracks exist when the first span is recorded; track
// registration order (workers, then masters, then devices) is fixed,
// keeping trace output byte-identical across runs.
func (r *Router) EnableObs(tr *obs.Tracer, reg *obs.Registry) {
	o := r.obs
	o.tr = tr
	o.reg = reg
	for i := range r.workers {
		o.workerTracks[i] = tr.Track("workers", "worker"+strconv.Itoa(i))
	}
	for _, m := range r.masters {
		o.masterTracks[m.node] = tr.Track("masters", "master"+strconv.Itoa(m.node))
	}
	for _, dev := range r.Devices {
		dev.EnableTrace(tr)
	}
	o.faultTrack = tr.Track("faults", "injector")
	o.chunkLatency = reg.Histogram("core.chunk_latency", obs.UnitDuration)
	o.gpuWait = reg.Histogram("core.gpu_queue_wait", obs.UnitDuration)
	o.chunkSize = reg.Histogram("core.chunk_packets", obs.UnitCount)
	o.launchThreads = reg.Histogram("core.launch_threads", obs.UnitCount)
	o.fallbackChunk = reg.Histogram("core.fallback_chunk_packets", obs.UnitCount)
	for i, name := range stageNames {
		o.stages[i] = reg.Histogram("core.stage."+name, obs.UnitDuration)
	}
}

// ObserveStats snapshots the router's cumulative counters (framework,
// GPU devices, packet I/O engine, and the application's own, if it
// reports any) into the registry installed by EnableObs. Call at the
// end of a run, before dumping the registry.
func (r *Router) ObserveStats() {
	reg := r.obs.reg
	if reg == nil {
		return
	}
	reg.Counter("core.packets").Set(r.Stats.Packets)
	reg.Counter("core.chunks_cpu").Set(r.Stats.ChunksCPU)
	reg.Counter("core.chunks_gpu").Set(r.Stats.ChunksGPU)
	reg.Counter("core.gpu_launches").Set(r.Stats.GPULaunches)
	reg.Counter("core.app_drops").Set(r.Stats.Drops)
	reg.Counter("core.gpu_stalls").Set(r.Stats.GPUStalls)
	reg.Counter("core.fallback_chunks").Set(r.Stats.FallbackChunks)
	reg.Counter("core.degraded_time_ps").Set(uint64(r.DegradedTime()))
	for _, d := range r.Devices {
		n := strconv.Itoa(d.Node)
		reg.Counter("gpu" + n + ".launches").Set(d.Launches)
		reg.Counter("gpu" + n + ".threads_run").Set(d.ThreadsRun)
		reg.Counter("gpu" + n + ".stalls").Set(d.Stalls)
	}
	r.Engine.ObserveStats(reg)
	if mr, ok := r.App.(MetricsReporter); ok {
		mr.ReportMetrics(reg)
	}
}
