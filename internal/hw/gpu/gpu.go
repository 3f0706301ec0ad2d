// Package gpu models an NVIDIA GTX480 as PacketShader uses it: a device
// that executes *real Go kernel functions* over batches of work items
// while charging virtual time from an analytic cost model calibrated to
// the paper's §2 microbenchmarks. The model reproduces the properties
// the paper's design exploits:
//
//   - per-launch fixed costs (launch latency, driver sync, PCIe α) that
//     amortize with batch size — the Figure 2 curve;
//   - memory-latency hiding: throughput rises with thread count until
//     the device's random-access rate saturates at ≈10× one X5550;
//   - copy engines independent of the execution engine, enabling
//     "concurrent copy and execution" (§5.4) with streams.
package gpu

import (
	"strconv"

	"packetshader/internal/hw/pcie"
	"packetshader/internal/model"
	"packetshader/internal/obs"
	"packetshader/internal/sim"
)

// KernelSpec declares a kernel's per-thread cost profile for the timing
// model. The functional work is a plain Go function run by Launch.
type KernelSpec struct {
	Name string
	// RandomAccesses is the number of dependent device-memory accesses
	// each thread performs (e.g. 7 for the IPv6 lookup, 1-2 for IPv4).
	RandomAccesses float64
	// ComputeCycles is the arithmetic work per thread.
	ComputeCycles float64
	// StreamBytesPerSec, if nonzero, caps streaming workloads (the
	// IPsec cipher path) at an effective byte rate per device.
	StreamBytesPerSec float64
	// PerThreadNs is GPU-wide serialized per-thread overhead (per-packet
	// state setup in IPsec); zero for pure lookup kernels.
	PerThreadNs float64
	// DivergenceFactor models warp code-path divergence (§5.5): when
	// the 32 threads of a warp take both sides of a data-dependent
	// branch, the SIMT hardware executes both paths with masking,
	// multiplying the compute time. 1 (or 0) means no divergence; the
	// paper's kernels keep it there by sorting packets into uniform
	// warps.
	DivergenceFactor float64
}

// ExecTime returns the kernel execution time for a launch of threads
// work items touching streamBytes of payload.
func (k *KernelSpec) ExecTime(threads, streamBytes int) sim.Duration {
	if threads <= 0 {
		return 0
	}
	t := float64(threads)
	// Throughput terms (saturated device).
	div := k.DivergenceFactor
	if div < 1 {
		div = 1
	}
	compute := t * k.ComputeCycles * div / (model.GPUCores * model.GPUFreqHz)
	mem := t * k.RandomAccesses / model.GPURandomAccessPerSec
	var stream, perThread float64
	if k.StreamBytesPerSec > 0 {
		stream = float64(streamBytes) / k.StreamBytesPerSec
	}
	perThread = t * k.PerThreadNs * 1e-9
	// Latency floor: a thread's dependent accesses cannot be hidden
	// below one serial chain; with more threads than the device can
	// keep resident, the chain repeats per "round".
	maxResident := float64(model.GPUSMs * model.GPUMaxWarpsPerSM * model.GPUWarpSize)
	rounds := 1.0
	if t > maxResident {
		rounds = t / maxResident
	}
	floor := k.RandomAccesses * model.GPUDevMemLatencyNs * 1e-9 * rounds

	exec := compute
	for _, v := range []float64{mem, stream, perThread, floor} {
		if v > exec {
			exec = v
		}
	}
	return sim.DurationFromSeconds(exec)
}

// Device is one GTX480 attached to an IOH via a PCIe x16 link.
type Device struct {
	Node int
	Link *pcie.Link
	// exec serializes kernel executions: the paper's framework runs one
	// kernel at a time per device (§7).
	exec *sim.Server

	// Launches and ThreadsRun accumulate usage statistics.
	Launches   uint64
	ThreadsRun uint64
	// Parts sums the round trips of the Launch calls completed so far,
	// part by part.
	Parts LaunchParts

	// failed marks the device as stalled/failed (fault injection): a
	// failed device never completes a launch — LaunchChecked times out
	// its watchdog instead. Failure takes effect at launch boundaries;
	// a launch already in flight completes normally.
	failed bool
	// Stalls counts launches that hit the watchdog on a failed device.
	Stalls uint64

	// trace, when enabled via EnableTrace, receives per-launch stage
	// spans (h2d / kernel / d2h / sync) on the device's track. The
	// copy/exec engine occupancy itself is traced at the sim.Server
	// level via Env hooks; these spans add the launch-lifecycle view.
	trace *obs.Tracer
	track obs.TrackID
}

// The parts of a launch's round trip, in the order Launch waits them out.
const (
	PartH2D     = iota // the host-to-device copy
	PartLatency        // the launch latency
	PartExec           // the kernel, its wait for the exec engine included
	PartD2H            // the device-to-host copy
	PartSync           // the driver sync
	NumParts
)

// PartNames name the parts, in part order.
var PartNames = [NumParts]string{"h2d", "latency", "exec", "d2h", "sync"}

// LaunchParts sums the round trips of Launches launches, part by part.
// LaunchStreams over more than one stream, whose parts overlap, adds
// nothing.
type LaunchParts struct {
	Launches uint64
	Time     [NumParts]sim.Duration
}

// New creates a device on the given NUMA node. Its PCIe link and exec
// engine carry the node number in their names ("gpu0-up", "gpu0-exec")
// for per-resource occupancy traces.
func New(env *sim.Env, ioh *pcie.IOH, node int) *Device {
	n := strconv.Itoa(node)
	return &Device{
		Node: node,
		Link: pcie.NewLink(env, ioh, "gpu"+n),
		exec: sim.NewServer(env, "gpu"+n+"-exec"),
	}
}

// ExecBusy exposes cumulative execution-engine work.
func (d *Device) ExecBusy() sim.Duration { return d.exec.BusyTime() }

// Fail marks the device as stalled: subsequent LaunchChecked calls burn
// their watchdog timeout and report failure until Repair.
func (d *Device) Fail() { d.failed = true }

// Repair restores the device; the next probe launch succeeds.
func (d *Device) Repair() { d.failed = false }

// Healthy reports whether the device currently completes launches.
func (d *Device) Healthy() bool { return !d.failed }

// LaunchChecked is Launch/LaunchStreams guarded by a host-side watchdog
// (the master's recovery path): on a healthy device it behaves exactly
// like Launch (or LaunchStreams when nStreams > 1) and returns true; on
// a failed device the caller blocks for the watchdog timeout — the time
// a real driver waits before declaring the launch hung — runs no
// functional work, and gets false so it can fall back to the CPU path.
func (d *Device) LaunchChecked(p *sim.Proc, spec *KernelSpec, watchdog sim.Duration, nStreams, threads, inBytes, outBytes, streamBytes int, fn func()) bool {
	if threads <= 0 {
		return true
	}
	if d.failed {
		d.Stalls++
		start := p.Now()
		p.Sleep(watchdog)
		d.trace.SpanUntil(d.track, "stall", start, p.Now(),
			obs.Arg{Key: "threads", Val: int64(threads)})
		return false
	}
	if nStreams > 1 {
		d.LaunchStreams(p, spec, nStreams, threads, inBytes, outBytes, streamBytes, fn)
	} else {
		d.Launch(p, spec, threads, inBytes, outBytes, streamBytes, fn)
	}
	return true
}

// EnableTrace attaches tr to the device, recording launch stage spans
// on a per-device track. A nil tr disables tracing.
func (d *Device) EnableTrace(tr *obs.Tracer) {
	d.trace = tr
	d.track = tr.Track("devices", "gpu"+strconv.Itoa(d.Node))
}

// Launch runs one synchronous GPU round trip from the calling (master)
// process: host→device copy of inBytes, kernel execution of threads work
// items, device→host copy of outBytes, plus launch latency and the
// host-side driver sync overhead. fn is the kernel's functional work,
// executed once (it should process the whole batch). The call blocks p
// for the full round trip and returns its duration.
func (d *Device) Launch(p *sim.Proc, spec *KernelSpec, threads, inBytes, outBytes, streamBytes int, fn func()) sim.Duration {
	start := p.Now()
	if threads <= 0 {
		return 0
	}
	d.Launches++
	d.ThreadsRun += uint64(threads)

	if inBytes > 0 {
		d.Link.CopyH2D(p, inBytes)
	}
	h2dDone := p.Now()
	d.trace.SpanUntil(d.track, "h2d", start, h2dDone,
		obs.Arg{Key: "bytes", Val: int64(inBytes)})
	latency := model.GPULaunchTime(threads)
	p.Sleep(latency)
	exec := d.exec.Use(p, spec.ExecTime(threads, streamBytes))
	// The kernel span includes launch latency and exec-engine queueing:
	// it is the launch's wall view, while the exec server's own busy
	// span (via sim hooks) isolates pure execution. Its name is built
	// only for a tracer that will keep it.
	if d.trace.Enabled() {
		d.trace.SpanUntil(d.track, "kernel:"+spec.Name, h2dDone, p.Now(),
			obs.Arg{Key: "threads", Val: int64(threads)})
	}
	if fn != nil {
		fn()
	}
	d2hStart := p.Now()
	if outBytes > 0 {
		d.Link.CopyD2H(p, outBytes)
		d.trace.SpanUntil(d.track, "d2h", d2hStart, p.Now(),
			obs.Arg{Key: "bytes", Val: int64(outBytes)})
	}
	syncStart := p.Now()
	// Host-side driver round-trip overhead (synchronization, completion
	// notification) — the dominant fixed cost for small batches.
	sync := sim.Duration(model.GPUSyncOverheadNs * float64(sim.Nanosecond))
	p.Sleep(sync)
	d.trace.SpanUntil(d.track, "sync", syncStart, p.Now())
	pt := &d.Parts
	pt.Launches++
	pt.Time[PartH2D] += sim.Duration(h2dDone - start)
	pt.Time[PartLatency] += latency
	pt.Time[PartExec] += exec
	pt.Time[PartD2H] += sim.Duration(syncStart - d2hStart)
	pt.Time[PartSync] += sync
	return sim.Duration(p.Now() - start)
}

// LaunchStreams is the "concurrent copy and execution" variant (§5.4,
// Figure 10(c)): the batch is split into nStreams slices whose copies
// and kernel executions overlap. Per-call CUDA overhead grows with
// stream count (the paper notes multiple streams hurt lightweight
// kernels), modelled as one extra launch latency per stream.
func (d *Device) LaunchStreams(p *sim.Proc, spec *KernelSpec, nStreams, threads, inBytes, outBytes, streamBytes int, fn func()) sim.Duration {
	if nStreams <= 1 {
		return d.Launch(p, spec, threads, inBytes, outBytes, streamBytes, fn)
	}
	start := p.Now()
	d.Launches++
	d.ThreadsRun += uint64(threads)

	per := func(total int) int { return (total + nStreams - 1) / nStreams }
	var lastD2H sim.Time
	for s := 0; s < nStreams; s++ {
		// Copy-in of slice s occupies the link; the kernel for slice s
		// starts when both its copy and the previous slice's kernel
		// finish; its copy-out starts when the kernel is done.
		h2dDone := d.Link.ScheduleH2D(per(inBytes))
		lt := model.GPULaunchTime(per(threads))
		execDur := spec.ExecTime(per(threads), per(streamBytes))
		kernelDone := d.exec.ScheduleAt(h2dDone, lt+execDur)
		lastD2H = d.Link.ScheduleD2HAt(kernelDone, per(outBytes))
	}
	if fn != nil {
		fn()
	}
	p.SleepUntil(lastD2H)
	p.Sleep(sim.Duration(model.GPUSyncOverheadNs * float64(sim.Nanosecond)))
	// Streamed copies/kernels are interleaved; the per-engine busy spans
	// (sim hooks) carry the detail, so the launch view is one span.
	if d.trace.Enabled() {
		d.trace.SpanUntil(d.track, "launch-streams:"+spec.Name, start, p.Now(),
			obs.Arg{Key: "threads", Val: int64(threads)},
			obs.Arg{Key: "streams", Val: int64(nStreams)})
	}
	return sim.Duration(p.Now() - start)
}

// ---------------------------------------------------------------------------
// Kernel cost profiles for the paper's four applications.
// ---------------------------------------------------------------------------

// KernelIPv4 is the DIR-24-8 lookup: mostly one random access.
var KernelIPv4 = KernelSpec{
	Name:           "ipv4-lookup",
	RandomAccesses: 1.05, // 2 accesses for the few >/24 prefixes
	ComputeCycles:  20,
}

// KernelIPv6 is the binary-search-on-length lookup: 7 dependent hash
// probes (§6.2.2).
var KernelIPv6 = KernelSpec{
	Name:           "ipv6-lookup",
	RandomAccesses: 7,
	ComputeCycles:  120,
}

// KernelOpenFlowHash computes flow-key hashes (the exact-match offload).
var KernelOpenFlowHash = KernelSpec{
	Name:           "openflow-hash",
	RandomAccesses: 1, // key fetch
	ComputeCycles:  180,
}

// KernelOpenFlowWildcard linearly scans rules; RandomAccesses is set per
// launch via ScaledBy since it grows with the table.
var KernelOpenFlowWildcard = KernelSpec{
	Name:           "openflow-wildcard",
	RandomAccesses: 0.25, // per rule scanned: rules pack 4/cache line sequentially
	ComputeCycles:  8,    // per rule
}

// ScaledBy returns a copy of k with the per-thread costs multiplied by
// n — used for kernels whose work grows with a table dimension.
func (k KernelSpec) ScaledBy(n float64) KernelSpec {
	k.RandomAccesses *= n
	k.ComputeCycles *= n
	return k
}

// KernelIPsec is the AES-128-CTR + HMAC-SHA1 pair (§6.2.4): streaming
// cipher rate with a per-packet serial component.
var KernelIPsec = KernelSpec{
	Name:              "ipsec-crypto",
	ComputeCycles:     200,
	StreamBytesPerSec: model.GPUIPsecBytesPerSec,
	PerThreadNs:       model.GPUIPsecPerPacketNs,
}
