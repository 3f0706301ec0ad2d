package apps

import (
	"packetshader/internal/core"
	"packetshader/internal/hw/gpu"
	"packetshader/internal/lookup/ipv6"
	"packetshader/internal/model"
	"packetshader/internal/packet"
	"packetshader/internal/route"
)

// IPv6Fwd is the §6.2.2 IPv6 forwarder: binary search on prefix lengths
// over a 200k-prefix table. Each lookup costs seven dependent memory
// accesses, making this the paper's memory-intensive showcase: the GPU's
// latency hiding gives its largest win here (Figure 11b).
type IPv6Fwd struct {
	Table    *ipv6.Table
	NumPorts int
	SlowPath uint64
}

type ipv6State struct {
	dec      packet.Decoder
	his, los []uint64
	hops     []uint16
}

// Name implements core.App.
func (a *IPv6Fwd) Name() string { return "ipv6-forwarding" }

// Kernel implements core.App.
func (a *IPv6Fwd) Kernel() *gpu.KernelSpec { return &gpu.KernelIPv6 }

// PreShade parses packets, decrements hop limits, and gathers the
// 128-bit destinations (four times the copy volume of IPv4, §6.2.2).
func (a *IPv6Fwd) PreShade(c *core.Chunk) core.PreResult {
	n := len(c.Bufs)
	st := chunkState[ipv6State](c)
	st.his = scratch(st.his, n)
	st.los = scratch(st.los, n)
	st.hops = scratch(st.hops, n)
	d := &st.dec
	for i, b := range c.Bufs {
		c.OutPorts[i] = -1
		if err := d.Decode(b.Data); err != nil || !d.Has(packet.LayerIPv6) {
			a.SlowPath++
			continue
		}
		if d.IPv6.HopLimit <= 1 {
			a.SlowPath++
			continue
		}
		b.Data[d.L3Off+7]-- // hop limit (no checksum in IPv6)
		c.OutPorts[i] = -2
		st.his[i] = d.IPv6.Dst.Hi()
		st.los[i] = d.IPv6.Dst.Lo()
	}
	return core.PreResult{
		CPUCycles: float64(n) * model.AppIPv6PreCycles,
		Threads:   n,
		InBytes:   n * 16,
		OutBytes:  n * 2,
	}
}

// RunKernel runs the batched binary-search-on-length lookup.
func (a *IPv6Fwd) RunKernel(c *core.Chunk) {
	st := c.State.(*ipv6State)
	a.Table.LookupBatch(st.his, st.los, st.hops)
}

// PostShade maps hops to ports.
func (a *IPv6Fwd) PostShade(c *core.Chunk) float64 {
	st := c.State.(*ipv6State)
	for i := range c.Bufs {
		if c.OutPorts[i] != -2 {
			continue
		}
		if st.hops[i] == route.NoRoute {
			c.OutPorts[i] = -1
			continue
		}
		c.OutPorts[i] = int(st.hops[i]) % a.NumPorts
	}
	return float64(len(c.Bufs)) * model.AppIPv6PostCycles
}

// CPUWork performs the seven-probe lookups on the CPU.
func (a *IPv6Fwd) CPUWork(c *core.Chunk) float64 {
	st := c.State.(*ipv6State)
	cycles := 0.0
	for i := range c.Bufs {
		if c.OutPorts[i] != -2 {
			continue
		}
		hop, probes := a.Table.LookupCounted(st.his[i], st.los[i])
		st.hops[i] = hop
		// Charge the paper's seven dependent accesses even when our
		// search tree is shallower (the functional table indexes only
		// the lengths present; the 2010 implementation probed the full
		// 1..128 hierarchy).
		if probes < model.IPv6LookupProbes {
			probes = model.IPv6LookupProbes
		}
		cycles += float64(float64(probes) * (float64(model.MemAccessCycles()*model.MemContentionFactor) +
			model.IPv6LookupComputeCycles))
	}
	return cycles
}
