package experiments

import (
	"fmt"

	"packetshader/internal/hw/gpu"
	"packetshader/internal/hw/pcie"
	"packetshader/internal/model"
	"packetshader/internal/sim"
)

// table1 regenerates the paper's Table 1: PCIe data transfer rate
// between host and device memory over buffer sizes from 256B to 1MB.
func table1(c *Ctx) *Result {
	r := &Result{
		ID:     "table1",
		Title:  "Data transfer rate between host and device (MB/s)",
		Header: []string{"Buffer size", "Host-to-device", "Device-to-host", "paper h2d", "paper d2h"},
	}
	sizes := []int{256, 1024, 4096, 16384, 65536, 262144, 1048576}
	type rates struct{ h2d, d2h float64 }
	pts := MapPoints(c, len(sizes), func(i int, _ *Point) rates {
		size := sizes[i]
		env := sim.NewEnv()
		defer env.Close()
		link := pcie.NewLink(env, pcie.NewIOH(env, 0), "gpu")
		const reps = 100
		// From time 0 the copier books reps host-to-device copies, each
		// as the last ends, then reps device-to-host ones.
		var h2d sim.Time
		copies := 0
		env.Task("copier", func(p *sim.Proc) {
			if copies == reps {
				h2d = p.Now()
			}
			if copies++; copies <= reps {
				p.WakeAt(link.ScheduleH2D(size))
			} else if copies <= 2*reps {
				p.WakeAt(link.ScheduleD2H(size))
			}
		})
		end := env.Run(0)
		rate := func(d sim.Duration) float64 {
			return float64(size*reps) / d.Seconds() / 1e6
		}
		return rates{rate(sim.Duration(h2d)), rate(sim.Duration(end - h2d))}
	})
	for i, size := range sizes {
		row := sizeLabel(size)
		r.AddRow(Label(row), Num("%.0f", pts[i].h2d), Num("%.0f", pts[i].d2h),
			Num("%.0f", paperValue("table1", row, "Host-to-device")),
			Num("%.0f", paperValue("table1", row, "Device-to-host")))
	}
	r.Note("d2h is the slower direction at large buffers (dual-IOH, §3.2)")
	return r
}

func sizeLabel(size int) string {
	switch {
	case size >= 1<<20:
		return fmt.Sprintf("%dM", size>>20)
	case size >= 1<<10:
		return fmt.Sprintf("%dK", size>>10)
	default:
		return fmt.Sprintf("%d", size)
	}
}

// launchLatency regenerates the §2.2 kernel-launch microbenchmark:
// the launch cost barely grows with the thread count. It is
// pure closed-form model evaluation — no simulation — so it runs inline
// rather than occupying a pool worker.
func launchLatency(*Ctx) *Result {
	r := &Result{
		ID:     "launch",
		Title:  "GPU kernel launch latency (§2.2)",
		Header: []string{"Threads", "Latency (us)", "per-thread (ns)"},
	}
	for _, threads := range []int{1, 32, 256, 1024, 4096} {
		// Launch-only: no copies, no sync accounting beyond the launch
		// itself (the paper measures the bare launch).
		dur := model.GPULaunchTime(threads)
		r.AddRow(Int(threads), Num("%.2f", dur.Microseconds()),
			Num("%.1f", dur.Microseconds()*1000/float64(threads)))
	}
	return r
}

// fig2 regenerates Figure 2: IPv6 lookup throughput (no packet I/O) of
// one X5550, two X5550s, and one GTX480 versus the number of packets
// processed in a batch.
func fig2(c *Ctx) *Result {
	r := &Result{
		ID:     "fig2",
		Title:  "IPv6 lookup throughput of X5550 and GTX480 (Mlookups/s)",
		Header: []string{"Batch", "1x X5550", "2x X5550", "GTX480"},
	}
	_, tbl := IPv6Fixture()

	perLookup := float64(model.IPv6LookupProbes) *
		(model.MemAccessCycles() + model.IPv6LookupComputeCycles)
	cpu1 := 4 * model.CPUFreqHz / perLookup
	cpu2 := 2 * cpu1

	batches := []int{32, 64, 128, 256, 320, 512, 640, 1024, 2048, 4096, 16384, 65536}
	gpuRates := MapPoints(c, len(batches), func(i int, _ *Point) float64 {
		batch := batches[i]
		env := sim.NewEnv()
		defer env.Close()
		dev := gpu.New(env, pcie.NewIOH(env, 0), 0)
		reps := 8
		his := make([]uint64, batch)
		los := make([]uint64, batch)
		hops := make([]uint16, batch)
		for i := range his {
			his[i] = uint64(0x2001)<<48 | uint64(i)*2654435761
			los[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		// The master runs reps launches back to back from time 0, so
		// their round trips sum to the run's end.
		var f gpu.Flight
		launches, inFlight := 0, false
		env.Task("m", func(p *sim.Proc) {
			for launches < reps || inFlight {
				next, wait := sim.Time(0), false
				if inFlight {
					next, wait, _ = dev.ResumeLaunch(p, &f)
				} else {
					launches++
					next, wait = dev.StartLaunch(p, &f, &gpu.KernelIPv6, 0, 1, batch, batch*16, batch*2, 0,
						func() { tbl.LookupBatch(his, los, hops) })
				}
				if inFlight = wait; wait {
					p.WakeAt(next)
					return
				}
			}
		})
		total := sim.Duration(env.Run(0))
		return float64(batch*reps) / total.Seconds()
	})
	for i, batch := range batches {
		r.AddRow(Int(batch), Num("%.1f", cpu1/1e6), Num("%.1f", cpu2/1e6),
			Num("%.1f", gpuRates[i]/1e6))
	}
	return r
}
