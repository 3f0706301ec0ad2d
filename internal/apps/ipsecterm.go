package apps

import (
	"packetshader/internal/core"
	"packetshader/internal/hw/gpu"
	"packetshader/internal/ipsec"
	"packetshader/internal/lookup/ipv4"
	"packetshader/internal/model"
	"packetshader/internal/packet"
	"packetshader/internal/route"
)

// IPsecTerm is the tunnel-terminator counterpart of IPsecGW: it
// receives ESP packets, authenticates and decapsulates them (AES-CTR +
// HMAC-SHA1 on the GPU path), then forwards the inner packets with a
// DIR-24-8 lookup — the downstream half of a site-to-site VPN.
type IPsecTerm struct {
	// SAs maps SPI → inbound SA.
	SAs map[uint32]*ipsec.SA
	// Table routes the decapsulated inner packets.
	Table    *ipv4.Table
	NumPorts int

	// Drops per failure class.
	BadSPI, AuthFail, Replayed, Malformed uint64
}

// NewIPsecTerm builds a terminator for the given inbound SAs.
func NewIPsecTerm(sas []*ipsec.SA, tbl *ipv4.Table, numPorts int) *IPsecTerm {
	m := make(map[uint32]*ipsec.SA, len(sas))
	for _, sa := range sas {
		m[sa.SPI] = sa
	}
	return &IPsecTerm{SAs: m, Table: tbl, NumPorts: numPorts}
}

type ipsecTermState struct {
	dec  packet.Decoder
	sa   []*ipsec.SA
	hops []uint16
}

// Name implements core.App.
func (a *IPsecTerm) Name() string { return "ipsec-terminator" }

// Kernel implements core.App (same crypto profile as the gateway —
// decryption and verification cost what encryption does for CTR+HMAC).
func (a *IPsecTerm) Kernel() *gpu.KernelSpec { return &gpu.KernelIPsec }

// PreShade classifies ESP packets and locates their SA by SPI.
func (a *IPsecTerm) PreShade(c *core.Chunk) core.PreResult {
	n := len(c.Bufs)
	st := chunkState[ipsecTermState](c)
	st.sa = scratch(st.sa, n)
	st.hops = scratch(st.hops, n)
	d := &st.dec
	inBytes := 0
	for i, b := range c.Bufs {
		c.OutPorts[i] = -1
		// A tunnel endpoint takes untagged IP: Decap reads the outer
		// header at EthHdrLen.
		if err := d.Decode(b.Data); err != nil || !d.Has(packet.LayerESP) || d.Has(packet.LayerVLAN) {
			a.Malformed++
			continue
		}
		if len(d.Payload) < 4 {
			a.Malformed++
			continue
		}
		spi := uint32(d.Payload[0])<<24 | uint32(d.Payload[1])<<16 |
			uint32(d.Payload[2])<<8 | uint32(d.Payload[3])
		sa := a.SAs[spi]
		if sa == nil {
			a.BadSPI++
			continue
		}
		st.sa[i] = sa
		c.OutPorts[i] = -2
		inBytes += len(b.Data)
	}
	return core.PreResult{
		CPUCycles:   float64(n) * model.AppIPsecPreCycles,
		Threads:     n,
		InBytes:     inBytes,
		OutBytes:    inBytes, // inner packets come back
		StreamBytes: inBytes,
	}
}

// RunKernel authenticates, decrypts, and unwraps every packet; failures
// mark the packet dropped with the failure class counted.
func (a *IPsecTerm) RunKernel(c *core.Chunk) {
	st := c.State.(*ipsecTermState)
	for i, b := range c.Bufs {
		if c.OutPorts[i] != -2 {
			continue
		}
		inner, err := st.sa[i].Decap(b.Data[packet.EthHdrLen:])
		switch err {
		case nil:
		case ipsec.ErrAuth:
			a.AuthFail++
			c.OutPorts[i] = -1
			continue
		case ipsec.ErrReplay:
			a.Replayed++
			c.OutPorts[i] = -1
			continue
		default:
			a.Malformed++
			c.OutPorts[i] = -1
			continue
		}
		// Replace the frame payload with the inner packet and route it.
		var hdr packet.IPv4Hdr
		if _, err := hdr.Decode(inner); err != nil {
			a.Malformed++
			c.OutPorts[i] = -1
			continue
		}
		st.hops[i] = a.Table.Lookup(hdr.Dst)
		need := packet.EthHdrLen + len(inner)
		copy(b.Data[packet.EthHdrLen:need], inner)
		b.Reset(need)
	}
}

// PostShade maps inner-route hops to ports.
func (a *IPsecTerm) PostShade(c *core.Chunk) float64 {
	st := c.State.(*ipsecTermState)
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
	return float64(len(c.Bufs)) * model.AppIPsecPostCycles
}

// CPUWork performs the decapsulation on the CPU.
func (a *IPsecTerm) CPUWork(c *core.Chunk) float64 {
	cycles := 0.0
	for i := range c.Bufs {
		if c.OutPorts[i] == -2 {
			cycles += model.IPsecCPUPerPacketCycles +
				float64(model.IPsecCPUPerByteCycles*float64(len(c.Bufs[i].Data)))
		}
	}
	a.RunKernel(c)
	return cycles
}
