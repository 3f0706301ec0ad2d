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
	paper := map[int][2]float64{
		256: {55, 63}, 1024: {185, 211}, 4096: {759, 786},
		16384: {2069, 1743}, 65536: {4046, 2848},
		262144: {5142, 3242}, 1048576: {5577, 3394},
	}
	sizes := []int{256, 1024, 4096, 16384, 65536, 262144, 1048576}
	type rates struct{ h2d, d2h float64 }
	pts := MapPoints(c, len(sizes), func(i int, _ *Point) rates {
		size := sizes[i]
		env := sim.NewEnv()
		defer env.Close()
		link := pcie.NewLink(env, pcie.NewIOH(env, 0), "gpu")
		const reps = 100
		var h2d, d2h sim.Duration
		env.Go("copier", func(p *sim.Proc) {
			t0 := p.Now()
			for i := 0; i < reps; i++ {
				link.CopyH2D(p, size)
			}
			h2d = sim.Duration(p.Now() - t0)
			t0 = p.Now()
			for i := 0; i < reps; i++ {
				link.CopyD2H(p, size)
			}
			d2h = sim.Duration(p.Now() - t0)
		})
		env.Run(0)
		rate := func(d sim.Duration) float64 {
			return float64(size*reps) / d.Seconds() / 1e6
		}
		return rates{rate(h2d), rate(d2h)}
	})
	for i, size := range sizes {
		r.AddRow(sizeLabel(size),
			fmt.Sprintf("%.0f", pts[i].h2d), fmt.Sprintf("%.0f", pts[i].d2h),
			fmt.Sprintf("%.0f", paper[size][0]), fmt.Sprintf("%.0f", paper[size][1]))
	}
	r.Note("paper peaks: 5.6 GB/s h2d, 3.4 GB/s d2h; d2h is slower (dual-IOH, §3.2)")
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
// 3.8 µs for one thread, 4.1 µs for 4096 (only a 10% increase). It is
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
		r.AddRow(fmt.Sprintf("%d", threads),
			fmt.Sprintf("%.2f", dur.Microseconds()),
			fmt.Sprintf("%.1f", dur.Microseconds()*1000/float64(threads)))
	}
	r.Note("paper: 3.8 us for 1 thread, 4.1 us for 4096 — amortized cost becomes negligible")
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
		var total sim.Duration
		env.Go("m", func(p *sim.Proc) {
			for i := 0; i < reps; i++ {
				total += dev.Launch(p, &gpu.KernelIPv6, batch, batch*16, batch*2, 0,
					func() { tbl.LookupBatch(his, los, hops) })
			}
		})
		env.Run(0)
		return float64(batch*reps) / total.Seconds()
	})
	for i, batch := range batches {
		r.AddRow(fmt.Sprintf("%d", batch),
			fmt.Sprintf("%.1f", cpu1/1e6), fmt.Sprintf("%.1f", cpu2/1e6),
			fmt.Sprintf("%.1f", gpuRates[i]/1e6))
	}
	r.Note("paper: GPU passes one X5550 beyond ~320 packets, two beyond ~640; peak ≈ ten X5550s")
	return r
}
