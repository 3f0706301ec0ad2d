package model

import (
	"math"
	"testing"
	"testing/quick"

	"packetshader/internal/sim"
)

func TestCyclesRoundTrip(t *testing.T) {
	for _, c := range []float64{1, 100, 2257, 1e6} {
		d := Cycles(c)
		back := CyclesOf(d)
		if math.Abs(back-c)/c > 1e-3 {
			t.Errorf("Cycles(%v) round-trips to %v", c, back)
		}
	}
}

func TestMemAccessCycles(t *testing.T) {
	// 65ns at 2.66GHz ≈ 173 cycles.
	got := MemAccessCycles()
	if got < 170 || got > 176 {
		t.Errorf("MemAccessCycles = %v, want ≈173", got)
	}
}

func TestWireTime64B(t *testing.T) {
	// The paper: a thousand 64B packets arrive in ~70 µs on 10GbE (§2.3),
	// i.e. 70.4ns per packet with the 24B overhead.
	wt := WireTime(64)
	ns := float64(wt) / float64(sim.Nanosecond)
	if ns < 70 || ns > 71 {
		t.Errorf("WireTime(64) = %vns, want ≈70.4", ns)
	}
}

// TestWireTimeExactPicoseconds pins WireTime to the picosecond: TX
// completion times, and through them every throughput and latency the
// experiments print, are sums of these values.
func TestWireTimeExactPicoseconds(t *testing.T) {
	for _, c := range []struct {
		size int
		want sim.Duration
	}{
		{64, 70_400},
		{1514, 1_230_400},
		// Not 60,000: 75 B × 8 / 10e9 × 1e12 is 59999.99999999999 in
		// float64 and the conversion truncates. An integer (size+24)×800
		// would be off by one here and at 50 sizes in 64…2048, which is
		// why WireTime stays the float expression.
		{51, 59_999},
	} {
		if got := WireTime(c.size); got != c.want {
			t.Errorf("WireTime(%d) = %d ps, want %d", c.size, got, c.want)
		}
	}
}

func TestPortPacketRate(t *testing.T) {
	// 10GbE at 64B: 14.2 Mpps with the paper's 24B overhead metric.
	pps := PortPacketRate(64)
	if pps < 14.1e6 || pps > 14.3e6 {
		t.Errorf("PortPacketRate(64) = %v, want ≈14.2M", pps)
	}
}

func TestGbpsFromPpsMatchesPaper(t *testing.T) {
	// §4.6: 41.1 Gbps == 58.4 Mpps at 64B.
	g := GbpsFromPps(58.4e6, 64)
	if math.Abs(g-41.1) > 0.2 {
		t.Errorf("58.4Mpps at 64B = %v Gbps, want ≈41.1", g)
	}
}

// TestTable1Reproduction verifies the fitted PCIe model reproduces every
// cell of the paper's Table 1 within 12%.
func TestTable1Reproduction(t *testing.T) {
	cases := []struct {
		size     int
		h2d, d2h float64 // MB/s from Table 1
	}{
		{256, 55, 63},
		{1024, 185, 211},
		{4096, 759, 786},
		{16384, 2069, 1743},
		{65536, 4046, 2848},
		{262144, 5142, 3242},
		{1048576, 5577, 3394},
	}
	for _, c := range cases {
		gotH2D := float64(c.size) / H2DTime(c.size).Seconds() / 1e6
		gotD2H := float64(c.size) / D2HTime(c.size).Seconds() / 1e6
		if rel := math.Abs(gotH2D-c.h2d) / c.h2d; rel > 0.12 {
			t.Errorf("h2d %dB: model %.0f MB/s vs paper %.0f (%.0f%% off)",
				c.size, gotH2D, c.h2d, rel*100)
		}
		if rel := math.Abs(gotD2H-c.d2h) / c.d2h; rel > 0.12 {
			t.Errorf("d2h %dB: model %.0f MB/s vs paper %.0f (%.0f%% off)",
				c.size, gotD2H, c.d2h, rel*100)
		}
	}
}

func TestGPULaunchLatencyAnchors(t *testing.T) {
	// §2.2: 3.8 µs for one thread, 4.1 µs for 4096.
	one := GPULaunchTime(1).Microseconds()
	big := GPULaunchTime(4096).Microseconds()
	if math.Abs(one-3.8) > 0.05 {
		t.Errorf("launch(1) = %vus, want 3.8", one)
	}
	if math.Abs(big-4.1) > 0.05 {
		t.Errorf("launch(4096) = %vus, want 4.1", big)
	}
}

func TestIOHForwardingCap(t *testing.T) {
	// The IOH model must yield ≈40 Gbps total for balanced RX+TX: each
	// IOH carries r up and r down; saturation when r/Up + r/Down = 1.
	// Balanced forwarding moves r up and r down per IOH; the up engine
	// binds: r(1+κ)/U = 1. With the 24B descriptor overhead equal to
	// the 24B wire overhead this is also the wire-Gbps cap.
	r := IOHUpBps * 8 / (1 + IOHKappa) // bits/s per IOH
	total := 2 * r / 1e9
	if total < 39 || total > 42.5 {
		t.Errorf("balanced forwarding cap = %v Gbps, want ≈41", total)
	}
}

func TestIOHRxTxCaps(t *testing.T) {
	rxOnly := 2 * IOHUpBps * 8 / 1e9
	txOnly := 2 * IOHDownBps * 8 / 1e9
	if rxOnly < 53 || rxOnly > 62 {
		t.Errorf("RX-only cap = %v Gbps, want 53-60 (Fig 6)", rxOnly)
	}
	if txOnly < 80 { // line rate (80) must bind before the IOH does
		t.Errorf("TX-only IOH cap = %v Gbps, must exceed 80 line rate", txOnly)
	}
}

func TestIOHCostAdditive(t *testing.T) {
	up := IOHCost(1500, 0)
	down := IOHCost(0, 1500)
	both := IOHCost(1500, 1500)
	if both != up+down {
		t.Errorf("IOHCost not additive: %v + %v != %v", up, down, both)
	}
	if up <= down {
		t.Error("device→host must be the scarcer direction (dual-IOH asymmetry)")
	}
}

func TestFig5CycleAnchors(t *testing.T) {
	// Batch size 1: ~0.78 Gbps on one core at 64B → 1.108 Mpps →
	// ≈2400 cycles per packet.
	perPkt1 := IOBatchCycles/1 + IOPerPacketCycles
	rate1 := CPUFreqHz / perPkt1
	gbps1 := GbpsFromPps(rate1, 64)
	if math.Abs(gbps1-0.78) > 0.08 {
		t.Errorf("batch=1 model %.2f Gbps, want ≈0.78 (Fig 5)", gbps1)
	}
	// Batch size 64: ~10.5 Gbps.
	perPkt64 := IOBatchCycles/64 + IOPerPacketCycles
	gbps64 := GbpsFromPps(CPUFreqHz/perPkt64, 64)
	if math.Abs(gbps64-10.5) > 0.6 {
		t.Errorf("batch=64 model %.2f Gbps, want ≈10.5 (Fig 5)", gbps64)
	}
	// Speedup ≈ 13.5×.
	if sp := gbps64 / gbps1; sp < 12 || sp > 15 {
		t.Errorf("batch speedup = %.1f, want ≈13.5", sp)
	}
}

func TestTable3BinsSumToTotal(t *testing.T) {
	sum := SkbInitCycles + SkbAllocWrapperCycles + 4*SlabOpCycles +
		SkbDriverCycles + SkbOtherCycles + CompulsoryMissCycles
	if math.Abs(sum-SkbRxTotalCycles) > 1 {
		t.Errorf("Table 3 bins sum to %v, want %v", sum, SkbRxTotalCycles)
	}
}

func TestIPv6CPULookupRate(t *testing.T) {
	// One X5550 (4 cores) should do ≈8 Mlookups/s so that the GPU's
	// 80 M/s peak is "about ten X5550 processors" (§2.3).
	perLookup := float64(IPv6LookupProbes) * (MemAccessCycles() + IPv6LookupComputeCycles)
	rate := 4 * CPUFreqHz / perLookup
	if rate < 7e6 || rate > 9.5e6 {
		t.Errorf("X5550 IPv6 lookup rate = %.1f M/s, want ≈8", rate/1e6)
	}
}

func TestGPUIPv6PeakTenCPUs(t *testing.T) {
	gpuPeak := GPURandomAccessPerSec / float64(IPv6LookupProbes)
	perLookup := float64(IPv6LookupProbes) * (MemAccessCycles() + IPv6LookupComputeCycles)
	cpuRate := 4 * CPUFreqHz / perLookup
	ratio := gpuPeak / cpuRate
	if ratio < 8 || ratio > 12 {
		t.Errorf("GPU/CPU IPv6 lookup ratio = %.1f, want ≈10 (§2.3)", ratio)
	}
}

// Property: wire time is strictly monotonic in packet size and h2d/d2h
// transfer times are monotonic in buffer size.
func TestMonotonicityProperties(t *testing.T) {
	f := func(a, b uint16) bool {
		sa, sb := int(a%1451)+64, int(b%1451)+64
		if sa == sb {
			return true
		}
		if sa > sb {
			sa, sb = sb, sa
		}
		return WireTime(sa) < WireTime(sb) &&
			H2DTime(sa) < H2DTime(sb) &&
			D2HTime(sa) < D2HTime(sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPsecCPURateAnchors(t *testing.T) {
	// §6.3: CPU-only IPsec ≈ 2.9-3.5 Gbps at 64B, ≈5.4-6 Gbps at 1514B
	// over 8 cores. ESP tunnel of a 64B frame ciphers ≈ 110B.
	cyc64 := IPsecCPUPerPacketCycles + IPsecCPUPerByteCycles*110
	g64 := GbpsFromPps(8*CPUFreqHz/cyc64, 64)
	if g64 < 2.5 || g64 > 4.0 {
		t.Errorf("CPU IPsec 64B = %.2f Gbps, want ≈3", g64)
	}
	cyc1514 := IPsecCPUPerPacketCycles + IPsecCPUPerByteCycles*1560
	g1514 := GbpsFromPps(8*CPUFreqHz/cyc1514, 1514)
	if g1514 < 4.5 || g1514 > 6.8 {
		t.Errorf("CPU IPsec 1514B = %.2f Gbps, want ≈5.4", g1514)
	}
}

func TestIPsecGPURateAnchors(t *testing.T) {
	// Two GPUs at 64B: ≈14.5 Mpps → ≈10.2 Gbps; without packet I/O the
	// pair scales to ≈33 Gbps at large sizes (§6.3).
	perPkt := GPUIPsecPerPacketNs*1e-9 + 110/GPUIPsecBytesPerSec
	total := GbpsFromPps(2/perPkt, 64)
	if total < 9 || total > 12 {
		t.Errorf("GPU IPsec 64B = %.2f Gbps, want ≈10.2", total)
	}
	perPkt1514 := GPUIPsecPerPacketNs*1e-9 + 1560/GPUIPsecBytesPerSec
	big := GbpsFromPps(2/perPkt1514, 1514)
	if big < 28 || big > 38 {
		t.Errorf("GPU IPsec crypto-only 1514B = %.2f Gbps, want ≈33", big)
	}
}
