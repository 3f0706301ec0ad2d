package packetshader_test

import (
	"testing"

	"packetshader"
)

func TestFacadeIPv4BothModes(t *testing.T) {
	for _, mode := range []packetshader.Mode{packetshader.ModeCPUOnly, packetshader.ModeGPU} {
		inst, err := packetshader.IPv4(5000, 3, packetshader.WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		inst.Run(2 * packetshader.Millisecond)
		rep := inst.Run(3 * packetshader.Millisecond)
		if rep.DeliveredGbps < 1 {
			t.Errorf("mode %v: %.2f Gbps", mode, rep.DeliveredGbps)
		}
		if mode == packetshader.ModeGPU && rep.Stats.GPULaunches == 0 {
			t.Error("GPU mode never launched")
		}
		if mode == packetshader.ModeCPUOnly && rep.Stats.GPULaunches != 0 {
			t.Error("CPU mode launched kernels")
		}
	}
}

func TestFacadeIPv6PacketSizeOption(t *testing.T) {
	inst := packetshader.Must(packetshader.IPv6(2000, 5,
		packetshader.WithPacketSize(256),
		packetshader.WithOfferedGbps(5)))
	rep := inst.Run(3 * packetshader.Millisecond)
	if rep.DeliveredGbps <= 0 {
		t.Errorf("delivered %.2f", rep.DeliveredGbps)
	}
	if rep.MeanLatencyUs <= 0 {
		t.Error("no latency recorded")
	}
}

func TestFacadeIPsecStreams(t *testing.T) {
	inst := packetshader.Must(packetshader.IPsec(7,
		packetshader.WithPacketSize(512),
		packetshader.WithStreams(4)))
	inst.Run(3 * packetshader.Millisecond)
	rep := inst.Run(3 * packetshader.Millisecond)
	if rep.InputGbps <= 0 {
		t.Errorf("input %.2f", rep.InputGbps)
	}
}

func TestFacadeRepeatedRunsContinue(t *testing.T) {
	inst, err := packetshader.IPv4(2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	r1 := inst.Run(2 * packetshader.Millisecond)
	r2 := inst.Run(2 * packetshader.Millisecond)
	// Second window should be at least as fast (post-warmup) and the
	// cumulative packet count must grow.
	if r2.Stats.Packets <= r1.Stats.Packets {
		t.Error("second run did not advance the simulation")
	}
}

func TestFacadeOpportunisticOffload(t *testing.T) {
	inst := packetshader.Must(packetshader.IPv6(2000, 11,
		packetshader.WithOpportunisticOffload(),
		packetshader.WithOfferedGbps(0.1)))
	rep := inst.Run(5 * packetshader.Millisecond)
	if rep.Stats.ChunksCPU == 0 {
		t.Error("opportunistic offload never used the CPU path at light load")
	}
}

// TestFacadeIPv4PoolSteadyState: once the rings and the chunk pipeline
// have filled, the packet pool is the huge buffer of §4.2 — a further
// 8 ms of forwarding at full load carves not one new cell.
func TestFacadeIPv4PoolSteadyState(t *testing.T) {
	inst := packetshader.Must(packetshader.IPv4(5000, 3,
		packetshader.WithMode(packetshader.ModeGPU), packetshader.WithPacketSize(64),
		packetshader.WithOfferedGbps(10)))
	inst.Run(4 * packetshader.Millisecond)
	pool := inst.Router.Engine.Pool
	warm := pool.Allocs
	if warm == 0 {
		t.Fatal("warm-up carved no cells")
	}
	inst.Run(8 * packetshader.Millisecond)
	if pool.Allocs != warm {
		t.Errorf("pool missed %d times after warm-up (%d cells warm)", pool.Allocs-warm, warm)
	}
}

// TestFacadeIPv4SteadyStateDoesNotAllocate: with observability off, a
// warmed router's whole data path — generator, NIC and PCIe models,
// chunk pipeline, the app's three steps, GPU launches — runs out of
// recycled state. bench/ gates allocs_per_sim_ms on this configuration
// at 1 %, and one allocation per chunk or per launch reads there as
// hundreds per simulated ms. The window is 20 ms, not 1: scratch that
// grows lazily (a slice appended to on a rare path) allocates a few
// times per tens of milliseconds, which a 1 ms window misses and bench/
// reads as a fraction of an allocation per simulated ms.
func TestFacadeIPv4SteadyStateDoesNotAllocate(t *testing.T) {
	inst := packetshader.Must(packetshader.IPv4(5000, 3,
		packetshader.WithMode(packetshader.ModeGPU), packetshader.WithPacketSize(64),
		packetshader.WithOfferedGbps(10)))
	defer inst.Close()
	inst.Run(4 * packetshader.Millisecond)
	const window = 20
	if n := testing.AllocsPerRun(1, func() { inst.Run(window * packetshader.Millisecond) }); n != 0 {
		t.Errorf("%v allocations in a %d ms window after warm-up (%.2f per simulated ms), want 0", n, window, n/window)
	}
}
