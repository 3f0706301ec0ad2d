package gpu

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"packetshader/internal/hw/pcie"
	"packetshader/internal/model"
	"packetshader/internal/obs"
	"packetshader/internal/sim"
)

func newDevice(env *sim.Env) *Device {
	return New(env, pcie.NewIOH(env, 0), 0)
}

// launchArgs is one launch a test master makes, gap after its last one
// returned.
type launchArgs struct {
	gap                            sim.Duration
	streams, threads, in, out, str int
}

// master is a test's master, a sim task: it makes its launches of spec
// one after another through StartLaunch and ResumeLaunch, calls
// before(i), if set, as launch i starts, and records when each launch
// started and returned and whether it completed.
type master struct {
	dev      *Device
	spec     *KernelSpec
	watchdog sim.Duration
	launches []launchArgs
	before   func(i int)
	fn       func()

	starts, returns []sim.Time
	oks             []bool

	f                Flight
	inFlight, waited bool
}

// startMaster starts m in env as a task named name and returns it.
func startMaster(env *sim.Env, name string, m *master) *master {
	env.Task(name, m.step)
	return m
}

func (m *master) step(p *sim.Proc) {
	for i := len(m.returns); i < len(m.launches); i = len(m.returns) {
		a, ok := m.launches[i], true
		switch {
		case m.inFlight:
			var next sim.Time
			var wait bool
			if next, wait, ok = m.dev.ResumeLaunch(p, &m.f); wait {
				p.WakeAt(next)
				return
			}
			m.inFlight = false
		case a.gap > 0 && !m.waited:
			m.waited = true
			p.WakeAfter(a.gap)
			return
		default:
			m.waited = false
			if m.before != nil {
				m.before(i)
			}
			m.starts = append(m.starts, p.Now())
			next, wait := m.dev.StartLaunch(p, &m.f, m.spec, m.watchdog, a.streams, a.threads, a.in, a.out, a.str, m.fn)
			if m.inFlight = wait; wait {
				p.WakeAt(next)
				return
			}
		}
		m.returns = append(m.returns, p.Now())
		m.oks = append(m.oks, ok)
	}
}

// trip returns launch i's round trip.
func (m *master) trip(i int) sim.Duration { return sim.Duration(m.returns[i] - m.starts[i]) }

// referenceLaunch is the blocking one-stream launch that launch's
// bookings replaced, kept as their oracle: it waits out the H2D copy,
// the launch latency, the exec engine, the D2H copy and the driver sync
// in turn, and books the latency off the exec engine.
func referenceLaunch(d *Device, p *sim.Proc, spec *KernelSpec, threads, inBytes, outBytes, streamBytes int) sim.Duration {
	start := p.Now()
	if threads <= 0 {
		return 0
	}
	d.Launches++
	d.ThreadsRun += uint64(threads)
	if inBytes > 0 {
		p.SleepUntil(d.Link.ScheduleH2D(inBytes))
	}
	h2dDone := p.Now()
	latency := model.GPULaunchTime(threads)
	p.Sleep(latency)
	p.SleepUntil(d.exec.Schedule(spec.ExecTime(threads, streamBytes)))
	exec := sim.Duration(p.Now() - h2dDone - sim.Time(latency))
	d2hStart := p.Now()
	if outBytes > 0 {
		p.SleepUntil(d.Link.ScheduleD2H(outBytes))
	}
	syncStart := p.Now()
	sync := sim.Duration(model.GPUSyncOverheadNs * float64(sim.Nanosecond))
	p.Sleep(sync)
	pt := &d.Parts
	pt.Launches++
	pt.Time[PartH2D] += sim.Duration(h2dDone - start)
	pt.Time[PartLatency] += latency
	pt.Time[PartExec] += exec
	pt.Time[PartD2H] += sim.Duration(syncStart - d2hStart)
	pt.Time[PartSync] += sync
	return sim.Duration(p.Now() - start)
}

// launchRun is what one master sees of a device while a second process
// books NIC DMA on the IOH: the round trip of each launch and the link's
// and the IOH's busy times, read as each launch returns, then the parts
// and the exec engine's busy time at the end.
type launchRun struct {
	trips            []sim.Duration
	linkUp, linkDown []sim.Duration
	iohUp, iohDown   []sim.Duration
	parts            LaunchParts
	exec             sim.Duration
}

// runLaunches drives one master through launches of sizes drawn from
// seed, through launch (reference false) or referenceLaunch, beside a
// process that books IOH traffic at times and sizes drawn from seed too.
func runLaunches(seed int64, reference bool) launchRun {
	env := sim.NewEnv()
	defer env.Close()
	ioh := pcie.NewIOH(env, 0)
	dev := New(env, ioh, 0)
	rng := rand.New(rand.NewSource(seed))
	type size struct{ threads, in, out, str int }
	sizes := make([]size, 40)
	for i := range sizes {
		threads := 1 + rng.Intn(2048)
		sizes[i] = size{threads, rng.Intn(2) * threads * (1 + rng.Intn(1600)),
			rng.Intn(2) * threads * (1 + rng.Intn(1600)), threads * rng.Intn(1600)}
	}
	nic := rand.New(rand.NewSource(seed + 1))
	var r launchRun
	env.Go("nic", func(p *sim.Proc) {
		for len(r.trips) < len(sizes) {
			p.Sleep(sim.Duration(nic.Intn(8000)) * sim.Nanosecond)
			if nic.Intn(2) == 0 {
				ioh.ScheduleUp(64 + nic.Intn(8000))
			} else {
				ioh.ScheduleDown(64 + nic.Intn(8000))
			}
		}
	})
	env.Go("master", func(p *sim.Proc) {
		for _, s := range sizes {
			var trip sim.Duration
			if reference {
				trip = referenceLaunch(dev, p, &KernelIPsec, s.threads, s.in, s.out, s.str)
			} else {
				trip = dev.Launch(p, &KernelIPsec, s.threads, s.in, s.out, s.str, nil)
			}
			r.trips = append(r.trips, trip)
			r.linkUp = append(r.linkUp, dev.Link.UpBusy())
			r.linkDown = append(r.linkDown, dev.Link.DownBusy())
			r.iohUp = append(r.iohUp, ioh.UpBusy())
			r.iohDown = append(r.iohDown, ioh.DownBusy())
			p.Sleep(sim.Duration(rng.Intn(50000)) * sim.Nanosecond)
		}
	})
	env.Run(0)
	r.parts, r.exec = dev.Parts, dev.ExecBusy()
	return r
}

// TestLaunchMatchesBlockingReference: one-stream launches give the
// round trips, the parts and the link's and IOH's busy times of the
// blocking launch they replaced, with NIC DMA on the IOH between their
// stages. The exec engine is busy longer by exactly the launch
// latencies, which launch books on it.
func TestLaunchMatchesBlockingReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		got, want := runLaunches(seed, false), runLaunches(seed, true)
		if len(got.trips) != len(want.trips) {
			t.Fatalf("seed %d: %d launches, the reference %d", seed, len(got.trips), len(want.trips))
		}
		for i := range want.trips {
			if got.trips[i] != want.trips[i] || got.linkUp[i] != want.linkUp[i] ||
				got.linkDown[i] != want.linkDown[i] || got.iohUp[i] != want.iohUp[i] ||
				got.iohDown[i] != want.iohDown[i] {
				t.Fatalf("seed %d launch %d: round trip %v, link busy %v/%v, IOH busy %v/%v; the reference %v, %v/%v, %v/%v",
					seed, i, got.trips[i], got.linkUp[i], got.linkDown[i], got.iohUp[i], got.iohDown[i],
					want.trips[i], want.linkUp[i], want.linkDown[i], want.iohUp[i], want.iohDown[i])
			}
		}
		if got.parts != want.parts {
			t.Errorf("seed %d: parts %v, the reference %v", seed, got.parts, want.parts)
		}
		if latency := got.parts.Time[PartLatency]; got.exec != want.exec+latency {
			t.Errorf("seed %d: exec busy %v, the reference %v plus the latencies %v", seed, got.exec, want.exec, latency)
		}
	}
}

// serviceLog records every service a server books, as the Env's hooks
// see it: the exec engine's spans end at the kernel ends, the link's
// down spans at the D2H ends.
type serviceLog []string

func (l *serviceLog) ServerBusy(s *sim.Server, start, end sim.Time) {
	*l = append(*l, fmt.Sprintf("%s %d %d", s.Name(), start, end))
}

// twinRun is what a master's launches show: each launch's return time
// and result, every booked service, the parts and the device's spans.
type twinRun struct {
	returns  []sim.Time
	oks      []bool
	services serviceLog
	parts    LaunchParts
	spans    string
}

// runTwinLaunches drives one master through launches of drawn sizes
// over streams streams, a zero-thread one among them, with gaps between
// them; with failed, the device fails before the third and is repaired
// before the fifth. The master is a task (master), or a goroutine
// process calling Launch (one stream, a healthy device) or else
// StartLaunch and ResumeLaunch, sleeping until each wake-up.
func runTwinLaunches(task bool, streams int, failed bool) twinRun {
	env := sim.NewEnv()
	defer env.Close()
	var r twinRun
	env.SetHooks(&r.services)
	tr := obs.NewTracer()
	dev := newDevice(env)
	dev.EnableTrace(tr)
	rng := rand.New(rand.NewSource(int64(streams)))
	type size struct{ threads, in, out, str int }
	sizes := make([]size, 8)
	gaps := make([]sim.Duration, len(sizes))
	for i := range sizes {
		threads := 1 + rng.Intn(4096)
		if i == 1 {
			threads = 0
		}
		sizes[i] = size{threads, threads * rng.Intn(1600), threads * rng.Intn(400), threads * rng.Intn(1600)}
		gaps[i] = sim.Duration(rng.Intn(20000)) * sim.Nanosecond
	}
	faults := func(i int) {
		if failed && i == 2 {
			dev.Fail()
		} else if failed && i == 4 {
			dev.Repair()
		}
	}
	gaps[0] = 0 // the first launch starts at once
	const watchdog = 300 * sim.Microsecond
	m := &master{dev: dev, spec: &KernelIPsec, watchdog: watchdog, before: faults}
	if task {
		for i, s := range sizes {
			m.launches = append(m.launches, launchArgs{gaps[i], streams, s.threads, s.in, s.out, s.str})
		}
		startMaster(env, "master", m)
	} else {
		env.Go("master", func(p *sim.Proc) {
			var f Flight
			for i, s := range sizes {
				if i > 0 {
					p.Sleep(gaps[i])
				}
				faults(i)
				ok := true
				if streams == 1 && !dev.Failed {
					dev.Launch(p, &KernelIPsec, s.threads, s.in, s.out, s.str, nil)
				} else {
					next, wait := dev.StartLaunch(p, &f, &KernelIPsec, watchdog, streams, s.threads, s.in, s.out, s.str, nil)
					for wait {
						p.SleepUntil(next)
						next, wait, ok = dev.ResumeLaunch(p, &f)
					}
				}
				m.returns = append(m.returns, p.Now())
				m.oks = append(m.oks, ok)
			}
		})
	}
	env.Run(0)
	r.returns, r.oks, r.parts = m.returns, m.oks, dev.Parts
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		panic(err)
	}
	r.spans = b.String()
	return r
}

// TestTaskLaunchMatchesGoroutineTwin: a launch driven from a task books
// the kernel and D2H ends, sums the parts, records the spans and returns
// at the instants of the same launch made from a goroutine, over one
// stream and four, and through watchdog stalls on a failed device.
func TestTaskLaunchMatchesGoroutineTwin(t *testing.T) {
	for _, streams := range []int{1, 4} {
		for _, failed := range []bool{false, true} {
			got, want := runTwinLaunches(true, streams, failed), runTwinLaunches(false, streams, failed)
			if len(want.returns) != 8 || len(want.services) < 8 {
				t.Fatalf("%d streams, failed %v: the goroutine twin made %d launches and %d services",
					streams, failed, len(want.returns), len(want.services))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d streams, failed %v: the task's launches diverged from the goroutine's:\n"+
					"returns %v / %v\noks %v / %v\nparts %v / %v\n%d / %d services, spans equal %v",
					streams, failed, got.returns, want.returns, got.oks, want.oks, got.parts, want.parts,
					len(got.services), len(want.services), got.spans == want.spans)
			}
			if stalls := !want.oks[2] && !want.oks[3]; failed != stalls {
				t.Errorf("%d streams, failed %v: oks %v", streams, failed, want.oks)
			}
		}
	}
}

// execEnds records the end of every service booked on a device's exec
// engine: its kernel ends, in booking order.
type execEnds []sim.Time

func (e *execEnds) ServerBusy(s *sim.Server, _, end sim.Time) {
	if strings.HasSuffix(s.Name(), "-exec") {
		*e = append(*e, end)
	}
}

// TestFlightsKeepTheirOwnKernelEnds: two task masters share a device,
// each making one four-stream launch, the second 1 µs after the first,
// so the two are in flight together. Each master wakes at the four
// kernel ends its own launch booked, then once for the sync.
func TestFlightsKeepTheirOwnKernelEnds(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	var ends execEnds
	env.SetHooks(&ends)
	dev := newDevice(env)
	var wakes [2][]sim.Time
	for i := range wakes {
		const threads = 2048
		m := &master{dev: dev, spec: &KernelIPsec, watchdog: sim.Millisecond, launches: []launchArgs{{
			gap: sim.Duration(i) * sim.Microsecond, streams: 4,
			threads: threads, in: threads * 64, out: threads * 64, str: threads * 64}}}
		env.Task("master", func(p *sim.Proc) {
			wakes[i] = append(wakes[i], p.Now())
			m.step(p)
		})
	}
	env.Run(0)
	if len(ends) != 8 || ends[0] <= sim.Time(sim.Microsecond) {
		t.Fatalf("kernel ends %v: want eight, the first after the second launch starts", ends)
	}
	for i, w := range wakes {
		// Master i starts (and master 1 waits out its gap), then books
		// kernels 4i … 4i+3.
		if want := ends[4*i : 4*i+4]; len(w) != 6+i || !slices.Equal(w[1+i:5+i], want) {
			t.Errorf("master %d woke at %v; its kernels end at %v", i, w, want)
		}
	}
}

// TestLaunchDoesNotAllocate: on a warm device a launch allocates
// nothing, over one stream or four, from a goroutine or a task.
func TestLaunchDoesNotAllocate(t *testing.T) {
	for _, task := range []bool{false, true} {
		for _, streams := range []int{1, 4} {
			env := sim.NewEnv()
			dev := newDevice(env)
			const threads = 1024
			launches := 0
			fn := func() { launches++ }
			if task {
				var f Flight
				inFlight := false
				env.Task("master", func(p *sim.Proc) {
					for {
						next, wait := sim.Time(0), false
						if inFlight {
							next, wait, _ = dev.ResumeLaunch(p, &f)
						} else {
							next, wait = dev.StartLaunch(p, &f, &KernelIPsec, sim.Millisecond, streams, threads,
								threads*1500, threads*1500, threads*1500, fn)
						}
						if inFlight = wait; wait {
							p.WakeAt(next)
							return
						}
					}
				})
			} else {
				env.Go("master", func(p *sim.Proc) {
					var f Flight
					for {
						next, wait := dev.StartLaunch(p, &f, &KernelIPsec, sim.Millisecond, streams, threads,
							threads*1500, threads*1500, threads*1500, fn)
						for wait {
							p.SleepUntil(next)
							next, wait, _ = dev.ResumeLaunch(p, &f)
						}
					}
				})
			}
			env.Run(sim.Time(sim.Millisecond))
			before := launches
			if n := testing.AllocsPerRun(50, func() { env.Run(env.Now() + sim.Time(sim.Millisecond)) }); n != 0 {
				t.Errorf("task %v, %d streams: %v allocs per millisecond of launches, want 0", task, streams, n)
			}
			if launches == before {
				t.Errorf("task %v, %d streams: no launch ran", task, streams)
			}
			env.Close()
		}
	}
}

func TestLaunchRunsKernelFunction(t *testing.T) {
	env := sim.NewEnv()
	dev := newDevice(env)
	ran := false
	env.Go("master", func(p *sim.Proc) {
		dev.Launch(p, &KernelIPv4, 64, 256, 128, 0, func() { ran = true })
	})
	env.Run(0)
	if !ran {
		t.Error("kernel function not executed")
	}
	if dev.Launches != 1 || dev.ThreadsRun != 64 {
		t.Errorf("stats = %d launches, %d threads", dev.Launches, dev.ThreadsRun)
	}
}

func TestLaunchZeroThreadsFree(t *testing.T) {
	env := sim.NewEnv()
	dev := newDevice(env)
	var dur sim.Duration
	env.Go("master", func(p *sim.Proc) {
		dur = dev.Launch(p, &KernelIPv4, 0, 0, 0, 0, nil)
	})
	env.Run(0)
	if dur != 0 || dev.Launches != 0 {
		t.Errorf("empty launch cost %v", dur)
	}
}

// ipv6Rate measures end-to-end GPU IPv6 lookup throughput at one batch
// size, replicating the Figure 2 microbenchmark: copy 16B addresses in,
// run the kernel, copy 2B results out, synchronize.
func ipv6Rate(batch int) float64 {
	env := sim.NewEnv()
	dev := newDevice(env)
	const reps = 20
	var total sim.Duration
	env.Go("master", func(p *sim.Proc) {
		for i := 0; i < reps; i++ {
			total += dev.Launch(p, &KernelIPv6, batch, batch*16, batch*2, 0, nil)
		}
	})
	env.Run(0)
	return float64(batch*reps) / total.Seconds()
}

// cpuRateX5550 is the modelled one-socket CPU lookup rate (Figure 2's
// CPU line).
func cpuRateX5550() float64 {
	perLookup := float64(model.IPv6LookupProbes) *
		(model.MemAccessCycles() + model.IPv6LookupComputeCycles)
	return 4 * model.CPUFreqHz / perLookup
}

func TestFig2ThroughputGrowsWithBatch(t *testing.T) {
	prev := 0.0
	for _, b := range []int{32, 64, 128, 256, 512, 1024, 4096} {
		r := ipv6Rate(b)
		if r <= prev {
			t.Errorf("rate(%d) = %.1f M/s not greater than rate at previous batch %.1f", b, r/1e6, prev/1e6)
		}
		prev = r
	}
}

func TestFig2CrossoverOneCPU(t *testing.T) {
	// §2.3: the GPU passes one X5550 with more than ~320 packets per
	// batch. Allow 256-512 for the crossover point.
	cpu := cpuRateX5550()
	if r := ipv6Rate(192); r >= cpu {
		t.Errorf("GPU already beats CPU at batch 192: %.1f vs %.1f M/s", r/1e6, cpu/1e6)
	}
	if r := ipv6Rate(512); r <= cpu {
		t.Errorf("GPU still behind CPU at batch 512: %.1f vs %.1f M/s", r/1e6, cpu/1e6)
	}
}

func TestFig2CrossoverTwoCPUs(t *testing.T) {
	// §2.3: passes two X5550s with more than ~640 packets.
	twoCPUs := 2 * cpuRateX5550()
	if r := ipv6Rate(384); r >= twoCPUs {
		t.Errorf("GPU beats 2 CPUs at batch 384: %.1f vs %.1f M/s", r/1e6, twoCPUs/1e6)
	}
	if r := ipv6Rate(1536); r <= twoCPUs {
		t.Errorf("GPU behind 2 CPUs at batch 1536: %.1f vs %.1f M/s", r/1e6, twoCPUs/1e6)
	}
}

func TestFig2PeakAboutTenCPUs(t *testing.T) {
	// §2.3: "at the peak performance one GTX480 is comparable to about
	// ten X5550 processors."
	peak := ipv6Rate(65536)
	ratio := peak / cpuRateX5550()
	if ratio < 6.5 || ratio > 13 {
		t.Errorf("GPU peak = %.1f× one X5550, want ≈10×", ratio)
	}
}

func TestExecTimeLatencyFloorSmallBatches(t *testing.T) {
	// A tiny launch is bounded by the dependent-access chain, not
	// throughput terms.
	one := KernelIPv6.ExecTime(1, 0)
	floor := sim.Duration(7 * model.GPUDevMemLatencyNs * float64(sim.Nanosecond))
	if one < floor*9/10 {
		t.Errorf("exec(1) = %v below the latency floor %v", one, floor)
	}
	// 32 threads still ride the same floor (one warp).
	if KernelIPv6.ExecTime(32, 0) > one*11/10 {
		t.Error("one warp should cost about the same as one thread")
	}
}

func TestExecTimeScalesBeyondResidency(t *testing.T) {
	resident := model.GPUSMs * model.GPUMaxWarpsPerSM * model.GPUWarpSize
	small := KernelIPv6.ExecTime(resident, 0)
	big := KernelIPv6.ExecTime(resident*4, 0)
	if big < small*3 {
		t.Errorf("4× threads beyond residency: %v vs %v, want ≈4×", big, small)
	}
}

func TestLaunchLatencyAppearsInRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	dev := newDevice(env)
	var dur sim.Duration
	env.Go("m", func(p *sim.Proc) {
		dur = dev.Launch(p, &KernelIPv4, 1, 4, 2, 0, nil)
	})
	env.Run(0)
	// Must include at least launch base + both PCIe α + sync.
	minimum := sim.Duration((model.GPULaunchBaseNs + model.PCIeH2DAlphaNs +
		model.PCIeD2HAlphaNs + model.GPUSyncOverheadNs) * float64(sim.Nanosecond))
	if dur < minimum {
		t.Errorf("round trip %v below fixed-cost floor %v", dur, minimum)
	}
}

// TestLaunchPartsTileRoundTrips: the five parts a one-stream launch
// sums add up to its round trips, two masters queueing on one device's
// copy and exec engines included, and a streamed launch adds none.
func TestLaunchPartsTileRoundTrips(t *testing.T) {
	env := sim.NewEnv()
	dev := newDevice(env)
	one := launchArgs{streams: 1, threads: 4096, in: 4096 * 16, out: 4096 * 2}
	four := one
	four.streams = 4
	var ms [2]*master
	for i := range ms {
		ms[i] = startMaster(env, "master", &master{dev: dev, spec: &KernelIPv6, watchdog: sim.Millisecond,
			launches: []launchArgs{one, one, one, four}})
	}
	env.Run(0)
	var total sim.Duration
	for _, m := range ms {
		for i := 0; i < 3; i++ {
			total += m.trip(i)
		}
	}
	pt := dev.Parts
	if pt.Launches != 6 {
		t.Fatalf("parts of %d launches, want 6", pt.Launches)
	}
	var sum sim.Duration
	for _, d := range pt.Time {
		sum += d
	}
	if sum != total {
		t.Errorf("parts sum to %v, the round trips to %v", sum, total)
	}
	if pt.Time[PartLatency] != 6*model.GPULaunchTime(4096) ||
		pt.Time[PartSync] != 6*sim.Duration(model.GPUSyncOverheadNs*float64(sim.Nanosecond)) {
		t.Errorf("launch latency %v and sync %v are not six of the model's", pt.Time[PartLatency], pt.Time[PartSync])
	}
	if exec := KernelIPv6.ExecTime(4096, 0); pt.Time[PartExec] <= 6*exec {
		t.Errorf("exec %v shows no wait behind the other master's kernels (6 × %v)", pt.Time[PartExec], exec)
	}
}

func TestIPsecKernelStreamBound(t *testing.T) {
	// Large packets: the cipher byte rate dominates. 1000 packets of
	// 1560B ≈ 1.56MB at 2.2 GB/s ≈ 709 µs.
	d := KernelIPsec.ExecTime(1000, 1000*1560)
	want := sim.DurationFromSeconds(1000 * 1560 / model.GPUIPsecBytesPerSec)
	if d < want || d > want*12/10 {
		t.Errorf("ipsec exec = %v, want ≈%v (stream bound)", d, want)
	}
}

func TestIPsecKernelPerPacketBound(t *testing.T) {
	// Tiny packets: the per-packet serial component dominates.
	d := KernelIPsec.ExecTime(10000, 10000*64)
	perPkt := sim.DurationFromSeconds(10000 * model.GPUIPsecPerPacketNs * 1e-9)
	if d < perPkt {
		t.Errorf("ipsec exec = %v, want ≥ per-packet bound %v", d, perPkt)
	}
}

func TestScaledBy(t *testing.T) {
	k := KernelOpenFlowWildcard.ScaledBy(1000)
	if k.RandomAccesses != KernelOpenFlowWildcard.RandomAccesses*1000 {
		t.Error("ScaledBy did not scale accesses")
	}
	if k.ComputeCycles != KernelOpenFlowWildcard.ComputeCycles*1000 {
		t.Error("ScaledBy did not scale compute")
	}
	// Original untouched (value receiver).
	if KernelOpenFlowWildcard.RandomAccesses != 0.25 {
		t.Error("ScaledBy mutated the prototype")
	}
}

func TestStreamsOverlapHelpsHeavyKernel(t *testing.T) {
	// Concurrent copy & execution (§5.4): for a copy-heavy workload the
	// streamed launch must beat the serialized one.
	const threads = 8192
	const bytes = threads * 1600
	run := func(streams int) sim.Duration {
		env := sim.NewEnv()
		m := startMaster(env, "m", &master{dev: newDevice(env), spec: &KernelIPsec, watchdog: sim.Millisecond,
			launches: []launchArgs{{streams: streams, threads: threads, in: bytes, out: bytes, str: bytes}}})
		env.Run(0)
		return m.trip(0)
	}
	serial := run(1)
	overlapped := run(4)
	if overlapped >= serial {
		t.Errorf("4 streams (%v) not faster than serial (%v)", overlapped, serial)
	}
}

func TestStreamsHurtLightKernel(t *testing.T) {
	// §5.4: "using multiple streams significantly degrades the
	// performance of lightweight kernels, such as IPv4 table lookup" —
	// the per-stream overhead outweighs the overlap.
	const threads = 256
	run := func(streams int) sim.Duration {
		env := sim.NewEnv()
		m := startMaster(env, "m", &master{dev: newDevice(env), spec: &KernelIPv4, watchdog: sim.Millisecond,
			launches: []launchArgs{{streams: streams, threads: threads, in: threads * 4, out: threads * 2}}})
		env.Run(0)
		return m.trip(0)
	}
	if one, four := run(1), run(4); four <= one {
		t.Errorf("4 streams (%v) unexpectedly beat 1 (%v) for a light kernel", four, one)
	}
}

// TestLaunchCheckedWatchdogAndRepair: a launch on a failed device
// burns its watchdog, runs no kernel and reports failure; after Repair
// the next launch completes.
func TestLaunchCheckedWatchdogAndRepair(t *testing.T) {
	env := sim.NewEnv()
	dev := newDevice(env)
	const watchdog = 500 * sim.Microsecond
	ran := 0
	launch := launchArgs{streams: 1, threads: 64, in: 256, out: 128}
	m := startMaster(env, "master", &master{dev: dev, spec: &KernelIPv4, watchdog: watchdog,
		launches: []launchArgs{launch, launch}, fn: func() { ran++ },
		before: func(i int) {
			if i == 0 {
				dev.Fail()
				if !dev.Failed {
					t.Error("Failed false after Fail()")
				}
			} else {
				dev.Repair()
			}
		}})
	env.Run(0)
	if m.oks[0] {
		t.Error("launch on failed device reported success")
	}
	if stallDur := m.trip(0); stallDur != watchdog {
		t.Errorf("stall burned %v, want the %v watchdog", stallDur, watchdog)
	}
	if dev.Stalls != 1 {
		t.Errorf("stalls = %d, want 1", dev.Stalls)
	}
	if !m.oks[1] || ran != 1 {
		t.Errorf("after repair ok=%v kernel runs=%d, want true/1", m.oks[1], ran)
	}
	if dev.Launches != 1 {
		t.Errorf("launches = %d; stalled attempts must not count", dev.Launches)
	}
}

func TestLaunchCheckedUsesStreams(t *testing.T) {
	env := sim.NewEnv()
	dev := newDevice(env)
	ran := false
	m := startMaster(env, "master", &master{dev: dev, spec: &KernelIPv4, watchdog: 500 * sim.Microsecond,
		launches: []launchArgs{{streams: 4, threads: 256, in: 1024, out: 512}}, fn: func() { ran = true }})
	env.Run(0)
	if !m.oks[0] {
		t.Error("healthy streamed launch failed")
	}
	if !ran || dev.Launches != 1 {
		t.Errorf("ran=%v launches=%d", ran, dev.Launches)
	}
}
