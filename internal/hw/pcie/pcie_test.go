package pcie

import (
	"math"
	"testing"

	"packetshader/internal/model"
	"packetshader/internal/sim"
)

// TestLinkReproducesTable1 drives sequential copies through an otherwise
// idle link and checks the achieved MB/s against the paper's Table 1.
func TestLinkReproducesTable1(t *testing.T) {
	cases := []struct {
		size     int
		h2d, d2h float64
	}{
		{256, 55, 63},
		{4096, 759, 786},
		{65536, 4046, 2848},
		{1048576, 5577, 3394},
	}
	for _, c := range cases {
		env := sim.NewEnv()
		ioh := NewIOH(env, 0)
		link := NewLink(env, ioh, "gpu0")
		const reps = 50
		var h2dDur, d2hDur sim.Duration
		env.Go("copier", func(p *sim.Proc) {
			start := p.Now()
			for i := 0; i < reps; i++ {
				link.CopyH2D(p, c.size)
			}
			h2dDur = sim.Duration(p.Now() - start)
			start = p.Now()
			for i := 0; i < reps; i++ {
				link.CopyD2H(p, c.size)
			}
			d2hDur = sim.Duration(p.Now() - start)
		})
		env.Run(0)
		gotH2D := float64(c.size*reps) / h2dDur.Seconds() / 1e6
		gotD2H := float64(c.size*reps) / d2hDur.Seconds() / 1e6
		if rel := math.Abs(gotH2D-c.h2d) / c.h2d; rel > 0.15 {
			t.Errorf("%dB h2d = %.0f MB/s, Table 1 says %.0f", c.size, gotH2D, c.h2d)
		}
		if rel := math.Abs(gotD2H-c.d2h) / c.d2h; rel > 0.15 {
			t.Errorf("%dB d2h = %.0f MB/s, Table 1 says %.0f", c.size, gotD2H, c.d2h)
		}
	}
}

// TestIOHUpCapacity saturates one IOH with device→host DMA and verifies
// it sustains ≈30 Gbps (the per-hub RX ceiling behind Figure 6).
func TestIOHUpCapacity(t *testing.T) {
	env := sim.NewEnv()
	ioh := NewIOH(env, 0)
	const chunk = 64 * 1024
	var moved int
	env.Go("dma", func(p *sim.Proc) {
		for p.Now() < sim.Time(10*sim.Millisecond) {
			done := ioh.ScheduleUp(chunk)
			moved += chunk
			p.SleepUntil(done)
		}
	})
	env.Run(sim.Time(10 * sim.Millisecond))
	gbps := float64(moved) * 8 / 10e-3 / 1e9
	want := model.IOHUpBps * 8 / 1e9
	if gbps < want*0.95 || gbps > want*1.05 {
		t.Errorf("IOH up throughput = %.1f Gbps, want ≈%.0f", gbps, want)
	}
}

// TestIOHBalancedForwarding models forwarding: every byte that comes up
// (RX DMA) goes back down (TX DMA). The coupled streams must settle at
// ≈20.5 Gbps each per hub — 41 Gbps of forwarding across two hubs, the
// paper's plateau.
func TestIOHBalancedForwarding(t *testing.T) {
	env := sim.NewEnv()
	ioh := NewIOH(env, 0)
	const chunk = 16 * 1024
	var moved int
	env.Go("fwd-dma", func(p *sim.Proc) {
		for p.Now() < sim.Time(10*sim.Millisecond) {
			upDone := ioh.ScheduleUp(chunk)
			downDone := ioh.ScheduleDown(chunk)
			if downDone < upDone {
				downDone = upDone
			}
			p.SleepUntil(downDone)
			moved += chunk
		}
	})
	env.Run(sim.Time(10 * sim.Millisecond))
	gbps := float64(moved) * 8 / 10e-3 / 1e9
	// The up engine binds: r(1+κ)/U = 1 → r = 30/1.465 ≈ 20.5 Gbps.
	want := model.IOHUpBps * 8 / (1 + model.IOHKappa) / 1e9
	if math.Abs(gbps-want) > 2 {
		t.Errorf("balanced forwarding = %.1f Gbps each way, want ≈%.1f", gbps, want)
	}
}

// TestIOHDownAloneExceedsLineRate: TX-only must not be IOH-limited
// (Figure 6 TX reaches the 80 Gbps line rate; each hub carries 40).
func TestIOHDownAloneExceedsLineRate(t *testing.T) {
	env := sim.NewEnv()
	ioh := NewIOH(env, 0)
	const chunk = 64 * 1024
	var moved int
	env.Go("dma", func(p *sim.Proc) {
		for p.Now() < sim.Time(10*sim.Millisecond) {
			p.SleepUntil(ioh.ScheduleDown(chunk))
			moved += chunk
		}
	})
	env.Run(sim.Time(10 * sim.Millisecond))
	gbps := float64(moved) * 8 / 10e-3 / 1e9
	if gbps < 40 {
		t.Errorf("IOH down throughput = %.1f Gbps, must exceed the 40 Gbps/hub line rate", gbps)
	}
}

// TestLinkContention: two processes sharing one link direction halve
// their individual throughput.
func TestLinkContention(t *testing.T) {
	env := sim.NewEnv()
	ioh := NewIOH(env, 0)
	link := NewLink(env, ioh, "gpu0")
	var aDone, bDone sim.Time
	env.Go("a", func(p *sim.Proc) {
		link.CopyH2D(p, 1<<20)
		aDone = p.Now()
	})
	env.Go("b", func(p *sim.Proc) {
		link.CopyH2D(p, 1<<20)
		bDone = p.Now()
	})
	env.Run(0)
	one := model.H2DTime(1 << 20)
	if aDone < sim.Time(one) || bDone < sim.Time(2*one)*9/10 {
		t.Errorf("contention not serialized: a=%v b=%v one=%v", aDone, bDone, one)
	}
}

// TestUpDownIndependentOnLink: PCIe is full duplex — opposite directions
// on one link do not queue behind each other (only the IOH couples
// them, mildly).
func TestUpDownIndependentOnLink(t *testing.T) {
	env := sim.NewEnv()
	ioh := NewIOH(env, 0)
	link := NewLink(env, ioh, "gpu0")
	var h2dDone, d2hDone sim.Time
	env.Go("h2d", func(p *sim.Proc) {
		link.CopyH2D(p, 1<<20)
		h2dDone = p.Now()
	})
	env.Go("d2h", func(p *sim.Proc) {
		link.CopyD2H(p, 1<<20)
		d2hDone = p.Now()
	})
	env.Run(0)
	soloH2D := model.H2DTime(1 << 20)
	soloD2H := model.D2HTime(1 << 20)
	// Each must finish well before the sum of both solo times (which is
	// what a half-duplex model would give). The IOH adds only
	// size/capacity ≈ 130-270µs... actually IOH fabric is shared: allow
	// the max of (link, ioh-queued) but not full serialization of link
	// times.
	sum := sim.Time(soloH2D + soloD2H)
	if h2dDone >= sum && d2hDone >= sum {
		t.Errorf("directions fully serialized: h2d=%v d2h=%v sum=%v", h2dDone, d2hDone, sum)
	}
}

func TestLinkRetrainHalvesBeta(t *testing.T) {
	const size = 1 << 20
	copyTime := func(l *Link, env *sim.Env) (h2d, d2h sim.Duration) {
		env.Go("copier", func(p *sim.Proc) {
			start := p.Now()
			l.CopyH2D(p, size)
			h2d = sim.Duration(p.Now() - start)
			start = p.Now()
			l.CopyD2H(p, size)
			d2h = sim.Duration(p.Now() - start)
		})
		env.Run(0)
		return
	}
	env := sim.NewEnv()
	link := NewLink(env, NewIOH(env, 0), "gpu0")
	if link.RetrainDivisor() != 1 {
		t.Fatalf("fresh link divisor = %d", link.RetrainDivisor())
	}
	h2dFull, d2hFull := copyTime(link, env)

	link.SetRetrain(2)
	h2dHalf, d2hHalf := copyTime(link, env)
	// Halving β doubles only the size/β term; α is unchanged.
	wantH2D := h2dFull + sim.DurationFromSeconds(size/model.PCIeH2DBetaBps)
	wantD2H := d2hFull + sim.DurationFromSeconds(size/model.PCIeD2HBetaBps)
	tol := func(got, want sim.Duration) bool {
		diff := float64(got - want)
		return math.Abs(diff) < 0.01*float64(want)
	}
	if !tol(h2dHalf, wantH2D) {
		t.Errorf("retrained H2D = %v, want ≈%v (full %v)", h2dHalf, wantH2D, h2dFull)
	}
	if !tol(d2hHalf, wantD2H) {
		t.Errorf("retrained D2H = %v, want ≈%v (full %v)", d2hHalf, wantD2H, d2hFull)
	}

	link.SetRetrain(1)
	h2dBack, _ := copyTime(link, env)
	if h2dBack != h2dFull {
		t.Errorf("restored H2D = %v, want %v", h2dBack, h2dFull)
	}
	link.SetRetrain(0) // clamps to 1
	if link.RetrainDivisor() != 1 {
		t.Errorf("divisor after SetRetrain(0) = %d, want 1", link.RetrainDivisor())
	}
}

// TestIOHTimesMatchFloatReference pins upTime and downTime, which are
// integer arithmetic, to the float expression they replaced: the
// transfer's seconds at the hub's byte rate, rounded to the nearest
// picosecond. Every reservation on an IOH — hence every result byte —
// rests on the two being equal.
func TestIOHTimesMatchFloatReference(t *testing.T) {
	check := func(bytes int) {
		t.Helper()
		if got, want := upTime(bytes), sim.DurationFromSeconds(float64(bytes)/model.IOHUpBps); got != want {
			t.Fatalf("upTime(%d) = %d ps, float reference %d ps", bytes, got, want)
		}
		if got, want := downTime(bytes), sim.DurationFromSeconds(float64(bytes)/model.IOHDownBps); got != want {
			t.Fatalf("downTime(%d) = %d ps, float reference %d ps", bytes, got, want)
		}
	}
	for bytes := 0; bytes <= 1<<20; bytes++ {
		check(bytes)
	}
	// Beyond any transfer the model makes (a 4 GiB copy), sampled.
	for i := uint64(0); i < 1<<16; i++ {
		check(int(sim.SplitMix64(i) >> 32))
	}
	check(1 << 32)
}
