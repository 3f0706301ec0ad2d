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
}

// ExecTime returns the kernel execution time for a launch of threads
// work items touching streamBytes of payload.
func (k *KernelSpec) ExecTime(threads, streamBytes int) sim.Duration {
	if threads <= 0 {
		return 0
	}
	t := float64(threads)
	// Throughput terms (saturated device). Warp divergence is not
	// charged: every kernel runs uniform warps (§5.5).
	compute := t * k.ComputeCycles / (model.GPUCores * model.GPUFreqHz)
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
	rounds := max(t/maxResident, 1)
	floor := k.RandomAccesses * model.GPUDevMemLatencyNs * 1e-9 * rounds
	return sim.DurationFromSeconds(max(compute, mem, stream, perThread, floor))
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
	// Parts sums the round trips of the one-stream launches completed so
	// far, part by part.
	Parts LaunchParts

	// Failed marks the device as stalled (fault injection, through
	// Fail and Repair): a failed device never completes a launch —
	// StartLaunch times out its watchdog instead. Failure takes effect
	// at launch boundaries; a launch already in flight completes
	// normally.
	Failed bool
	// Stalls counts launches that hit the watchdog on a failed device.
	Stalls uint64

	// trace, when enabled via EnableTrace, receives per-launch stage
	// spans (h2d / kernel / d2h / sync) on the device's track. The
	// copy/exec engine occupancy itself is traced at the sim.Server
	// level via Env hooks; these spans add the launch-lifecycle view.
	trace *obs.Tracer
	track obs.TrackID
}

// The parts of a one-stream launch's round trip, in time order.
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

// LaunchParts sums the round trips of Launches one-stream launches, part
// by part. A launch over more than one stream, whose parts overlap, adds
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

// Fail marks the device as stalled: launches started after it burn
// their watchdog timeout and report failure until Repair.
func (d *Device) Fail() { d.Failed = true }

// Repair restores the device; the next probe launch succeeds.
func (d *Device) Repair() { d.Failed = false }

// EnableTrace attaches tr to the device, recording launch stage spans
// on a per-device track. A nil tr disables tracing.
func (d *Device) EnableTrace(tr *obs.Tracer) {
	d.trace = tr
	d.track = tr.Track("devices", "gpu"+strconv.Itoa(d.Node))
}

// Launch blocks p for launch's one-stream case, the round trip
// PacketShader's master runs (§5.1), and returns its duration. Its only
// non-test caller is bench/micro.go.
func (d *Device) Launch(p *sim.Proc, spec *KernelSpec, threads, inBytes, outBytes, streamBytes int, fn func()) sim.Duration {
	start := p.Now()
	var f Flight
	for next, wait := d.launch(p, &f, spec, 1, threads, inBytes, outBytes, streamBytes, fn); wait; next, wait, _ = d.ResumeLaunch(p, &f) {
		p.SleepUntil(next)
	}
	return sim.Duration(p.Now() - start)
}

// A Flight is one launch in flight, what its wake-ups need of its
// start. The caller keeps it across them, a task in its own state, and
// a Flight kept from one launch to the next reuses its ends' backing
// array, so a launch over up to that many streams allocates nothing.
type Flight struct {
	spec                       *KernelSpec
	fn                         func()
	threads, in, out, perOut   int
	latency                    sim.Duration
	start, h2d, at, kernelDone sim.Time // at: the next kernel end
	d2h                        sim.Time
	ends                       []sim.Time // the later slices' kernel ends, as this launch booked them
	next                       int        // the kernel ends passed; len(ends)+1 once the sync is booked
	stall                      bool       // a watchdog stall on a failed device
}

// StartLaunch starts, from p, now, a launch over nStreams streams (one
// when nStreams < 1) guarded by a host-side watchdog (the master's
// recovery path), keeping its state in f. It returns the instant of the
// launch's first wake-up, or false when there is none (no threads). At
// that and each later wake-up the caller calls ResumeLaunch, which
// returns the next. On a failed device the one wake-up is the watchdog
// timeout — the time a real driver waits before declaring the launch
// hung — and the launch runs no functional work.
func (d *Device) StartLaunch(p *sim.Proc, f *Flight, spec *KernelSpec, watchdog sim.Duration, nStreams, threads, inBytes, outBytes, streamBytes int, fn func()) (sim.Time, bool) {
	if threads > 0 && d.Failed {
		d.Stalls++
		*f = Flight{threads: threads, start: p.Now(), ends: f.ends[:0], stall: true}
		return p.Now() + sim.Time(max(watchdog, 0)), true
	}
	return d.launch(p, f, spec, max(nStreams, 1), threads, inBytes, outBytes, streamBytes, fn)
}

// ResumeLaunch carries the launch in flight on at one of its wake-ups:
// it returns the next one, or false and whether the launch completed
// (false after a watchdog stall, so the caller can fall back to the CPU
// path) when the round trip is over.
func (d *Device) ResumeLaunch(p *sim.Proc, f *Flight) (next sim.Time, wait, ok bool) {
	if f.stall {
		d.trace.SpanUntil(d.track, "stall", f.start, p.Now(),
			obs.Arg{Key: "threads", Val: int64(f.threads)})
		return 0, false, false
	}
	if f.next <= len(f.ends) {
		f.kernelDone, f.d2h = f.at, f.at
		if f.out > 0 {
			f.d2h = d.Link.ScheduleD2H(f.perOut)
		}
		if f.next++; f.next <= len(f.ends) {
			f.at = f.ends[f.next-1]
			return f.at, true, true
		}
		if f.fn != nil {
			f.fn()
		}
		sync := sim.Duration(model.GPUSyncOverheadNs * float64(sim.Nanosecond))
		return f.d2h + sim.Time(sync), true, true
	}
	d.finish(f, p.Now())
	return 0, false, true
}

// launch starts one synchronous GPU round trip from the calling (master)
// process over n ≥ 1 streams, the batch split into n equal slices
// ("concurrent copy and execution" when n > 1, §5.4), and returns its
// first wake-up. At the start it books each slice's H2D copy and, from
// the copy's end, its launch latency and kernel on the exec engine. At
// each kernel's end the master wakes and books that slice's D2H copy.
// fn, the kernel's functional work over the whole batch, runs at the
// last kernel's end; the master then sleeps once, until the last copy
// is done plus the driver sync.
func (d *Device) launch(p *sim.Proc, f *Flight, spec *KernelSpec, n, threads, inBytes, outBytes, streamBytes int, fn func()) (sim.Time, bool) {
	start := p.Now()
	if threads <= 0 {
		return 0, false
	}
	d.Launches++
	d.ThreadsRun += uint64(threads)
	per := func(total int) int { return (total + n - 1) / n }
	// The launch latency grows with the thread count, so it is device
	// work: one latency per stream is what makes streams hurt a light
	// kernel.
	latency := model.GPULaunchTime(per(threads))
	kernel := latency + spec.ExecTime(per(threads), per(streamBytes))
	h2d, first, ends := start, sim.Time(0), f.ends[:0]
	for k := range n {
		if inBytes > 0 {
			h2d = d.Link.ScheduleH2D(per(inBytes))
		}
		if end := d.exec.ScheduleAt(h2d, kernel); k == 0 {
			first = end
		} else {
			ends = append(ends, end)
		}
	}
	*f = Flight{spec: spec, fn: fn, threads: threads, in: inBytes, out: outBytes, perOut: per(outBytes),
		latency: latency, start: start, h2d: h2d, at: first, ends: ends}
	return f.at, true
}

// finish records the launch in flight, its round trip over at end: one
// span for a launch over more than one stream, whose slices overlap and
// add no Parts, and the spans and Parts of a one-stream launch.
func (d *Device) finish(f *Flight, end sim.Time) {
	if len(f.ends) > 0 {
		if d.trace.Enabled() {
			d.trace.SpanUntil(d.track, "launch-streams:"+f.spec.Name, f.start, end,
				obs.Arg{Key: "threads", Val: int64(f.threads)},
				obs.Arg{Key: "streams", Val: int64(len(f.ends) + 1)})
		}
		return
	}
	d.trace.SpanUntil(d.track, "h2d", f.start, f.h2d,
		obs.Arg{Key: "bytes", Val: int64(f.in)})
	// The kernel span is the launch's view, latency and queueing included.
	if d.trace.Enabled() {
		d.trace.SpanUntil(d.track, "kernel:"+f.spec.Name, f.h2d, f.kernelDone,
			obs.Arg{Key: "threads", Val: int64(f.threads)})
	}
	if f.out > 0 {
		d.trace.SpanUntil(d.track, "d2h", f.kernelDone, f.d2h,
			obs.Arg{Key: "bytes", Val: int64(f.out)})
	}
	d.trace.SpanUntil(d.track, "sync", f.d2h, end)
	d.Parts.Launches++
	at := [NumParts + 1]sim.Time{f.start, f.h2d, f.h2d + sim.Time(f.latency), f.kernelDone, f.d2h, end}
	for i := range d.Parts.Time {
		d.Parts.Time[i] += sim.Duration(at[i+1] - at[i])
	}
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
