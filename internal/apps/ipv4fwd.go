// Package apps implements the four router applications the paper
// evaluates on PacketShader (§6.2): IPv4 and IPv6 forwarding, an
// OpenFlow switch, and an IPsec gateway. Each plugs into the framework
// via the core.App callbacks, performs its packet processing for real
// (lookups, matching, encryption), and reports calibrated CPU cycle
// costs for the virtual clock.
package apps

import (
	"encoding/binary"

	"packetshader/internal/core"
	"packetshader/internal/hw/gpu"
	"packetshader/internal/lookup/ipv4"
	"packetshader/internal/model"
	"packetshader/internal/packet"
	"packetshader/internal/route"
)

// IPv4Fwd is the §6.2.1 IPv4 forwarder: DIR-24-8 lookup over a BGP-scale
// table, with TTL decrement and incremental checksum update in
// pre-shading and slow-path classification for malformed packets.
type IPv4Fwd struct {
	Table *ipv4.Table
	// NumPorts maps next hops onto output ports.
	NumPorts int
	// SlowPath counts packets punted to the host stack (TTL expired,
	// malformed, bad checksum).
	SlowPath uint64
}

type ipv4State struct {
	dec   packet.Decoder
	addrs []packet.IPv4Addr
	hops  []uint16
}

// Name implements core.App.
func (a *IPv4Fwd) Name() string { return "ipv4-forwarding" }

// Kernel implements core.App.
func (a *IPv4Fwd) Kernel() *gpu.KernelSpec { return &gpu.KernelIPv4 }

// PreShade parses each packet, handles TTL/checksum, drops slow-path
// packets from the fast path, and gathers destination addresses for the
// GPU (§6.2.1).
func (a *IPv4Fwd) PreShade(c *core.Chunk) core.PreResult {
	st := chunkState[ipv4State](c)
	st.addrs = st.addrs[:0]
	st.hops = scratch(st.hops, len(c.Bufs))
	d := &st.dec
	for i, b := range c.Bufs {
		c.OutPorts[i] = -1
		if err := d.Decode(b.Data); err != nil || !d.Has(packet.LayerIPv4) {
			a.SlowPath++
			st.addrs = append(st.addrs, 0) // keep slot alignment
			continue
		}
		hdr := b.Data[d.L3Off:] // behind the 802.1Q tag, if any
		if d.IPv4.TTL <= 1 || !packet.VerifyIPv4Checksum(hdr) {
			a.SlowPath++
			st.addrs = append(st.addrs, 0)
			continue
		}
		// Decrement TTL with the RFC 1624 incremental checksum update —
		// the real data-plane mutation.
		old16 := binary.BigEndian.Uint16(hdr[8:10])
		hdr[8]--
		cs := binary.BigEndian.Uint16(hdr[10:12])
		binary.BigEndian.PutUint16(hdr[10:12], packet.ChecksumUpdateTTLDecrement(cs, old16))
		c.OutPorts[i] = -2 // mark fast-path; filled by PostShade
		st.addrs = append(st.addrs, d.IPv4.Dst)
	}
	n := len(c.Bufs)
	return core.PreResult{
		CPUCycles: float64(n) * model.AppIPv4PreCycles,
		Threads:   n,
		InBytes:   n * 4,
		OutBytes:  n * 2,
	}
}

// RunKernel implements the shading step: the DIR-24-8 lookup batch, the
// exact function a GPU thread-per-packet kernel computes.
func (a *IPv4Fwd) RunKernel(c *core.Chunk) {
	st := c.State.(*ipv4State)
	a.Table.LookupBatch(st.addrs, st.hops)
}

// PostShade turns next hops into output ports.
func (a *IPv4Fwd) PostShade(c *core.Chunk) float64 {
	st := c.State.(*ipv4State)
	for i := range c.Bufs {
		if c.OutPorts[i] != -2 {
			continue // slow path already dropped
		}
		hop := st.hops[i]
		if hop == route.NoRoute {
			c.OutPorts[i] = -1
			continue
		}
		c.OutPorts[i] = int(hop) % a.NumPorts
	}
	return float64(len(c.Bufs)) * model.AppIPv4PostCycles
}

// CPUWork performs the lookups on the CPU (CPU-only mode), charging
// the memory-access-dominated per-lookup cost.
func (a *IPv4Fwd) CPUWork(c *core.Chunk) float64 {
	st := c.State.(*ipv4State)
	cycles := 0.0
	for i, addr := range st.addrs {
		if c.OutPorts[i] != -2 {
			continue
		}
		hop, accesses := a.Table.LookupCounted(addr)
		st.hops[i] = hop
		cycles += float64(accesses)*model.MemAccessCycles()*model.MemContentionFactor +
			model.IPv4LookupComputeCycles
	}
	return cycles
}
