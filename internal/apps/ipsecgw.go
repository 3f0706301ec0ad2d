package apps

import (
	"packetshader/internal/core"
	"packetshader/internal/hw/gpu"
	"packetshader/internal/ipsec"
	"packetshader/internal/model"
	"packetshader/internal/packet"
)

// IPsecGW is the §6.2.4 IPsec gateway: ESP tunnel-mode encapsulation
// with AES-128-CTR and HMAC-SHA1. The GPU offload carries AES (one
// thread per 16B block) and SHA1 (one thread per packet); ESP framing
// stays on the CPU. One SA per output port keeps per-flow ordering while
// spreading tunnels across the fabric.
type IPsecGW struct {
	SAs      []*ipsec.SA
	NumPorts int
	// Errors counts IPv4 packets the gateway refused: 802.1Q-tagged (a
	// tunnel endpoint takes untagged IP), too long for one ESP packet, or
	// behind their SA's last sequence number.
	Errors uint64
}

// NewIPsecGW creates a gateway with one outbound SA per port.
func NewIPsecGW(numPorts int) *IPsecGW {
	g := &IPsecGW{NumPorts: numPorts}
	for i := 0; i < numPorts; i++ {
		enc := make([]byte, 16)
		auth := make([]byte, 20)
		for j := range enc {
			enc[j] = byte(i*16 + j)
		}
		for j := range auth {
			auth[j] = byte(i*20 + j + 1)
		}
		g.SAs = append(g.SAs, ipsec.NewSA(uint32(0x1000+i), 0xabcd0000+uint32(i),
			enc, auth,
			packet.IPv4Addr(0x0A000001+uint32(i)), packet.IPv4Addr(0x0AFF0001+uint32(i))))
	}
	return g
}

type ipsecState struct {
	dec     packet.Decoder
	sa      []int // SA (and output port) per packet
	espLens []int
	// batch is here, not on RunKernel's stack, because its lane pointers
	// point into its own pad buffers: on the stack it would escape.
	batch ipsec.Batch
}

// Name implements core.App.
func (a *IPsecGW) Name() string { return "ipsec-gateway" }

// Kernel implements core.App.
func (a *IPsecGW) Kernel() *gpu.KernelSpec { return &gpu.KernelIPsec }

// PreShade parses packets, selects the tunnel SA by flow hash, and
// computes transfer sizes: IPsec moves entire payloads across PCIe
// (§6.3: "entire packet payloads and other metadata ... are transmitted
// from/to GPU, weighing on the burden of IOHs").
func (a *IPsecGW) PreShade(c *core.Chunk) core.PreResult {
	n := len(c.Bufs)
	st := chunkState[ipsecState](c)
	st.sa = scratch(st.sa, n)
	st.espLens = scratch(st.espLens, n)
	d := &st.dec
	inBytes, outBytes := 0, 0
	for i, b := range c.Bufs {
		c.OutPorts[i] = -1
		if err := d.Decode(b.Data); err != nil || !d.Has(packet.LayerIPv4) {
			continue
		}
		if d.Has(packet.LayerVLAN) {
			a.Errors++
			continue
		}
		c.OutPorts[i] = -2
		st.sa[i] = int(b.Hash % uint32(len(a.SAs))) // int(b.Hash) is negative on 32-bit hosts
		innerLen := len(b.Data) - packet.EthHdrLen
		st.espLens[i] = innerLen + ipsec.EncapOverhead(innerLen)
		inBytes += innerLen + 32 // payload + key/IV metadata
		outBytes += st.espLens[i]
	}
	return core.PreResult{
		CPUCycles:   float64(n) * model.AppIPsecPreCycles,
		Threads:     n,
		InBytes:     inBytes,
		OutBytes:    outBytes,
		StreamBytes: outBytes,
	}
}

// RunKernel performs the real encapsulation (AES-CTR + HMAC-SHA1 over
// every packet) — the functional equivalent of the paper's two-level
// parallel GPU implementation, its one-thread-per-packet SHA-1 done
// sixteen packets per pass by ipsec.Batch. The ESP packet is built in
// the frame's own cell, behind the Ethernet header it keeps; the cell
// has headroom for it, and Reset moves the frame to a larger one when
// it does not.
func (a *IPsecGW) RunKernel(c *core.Chunk) {
	st := c.State.(*ipsecState)
	for i, b := range c.Bufs {
		if c.OutPorts[i] != -2 {
			continue
		}
		frameLen := len(b.Data)
		b.Reset(packet.EthHdrLen + st.espLens[i])
		ip := b.Data[packet.EthHdrLen:]
		if _, err := st.batch.Encap(a.SAs[st.sa[i]], ip, ip[:frameLen-packet.EthHdrLen]); err != nil {
			b.Reset(frameLen) // refused before a byte was written
			a.Errors++
			c.OutPorts[i] = -1
		}
	}
	st.batch.Flush()
}

// PostShade routes each tunnel to its port.
func (a *IPsecGW) PostShade(c *core.Chunk) float64 {
	st := c.State.(*ipsecState)
	for i := range c.Bufs {
		if c.OutPorts[i] == -2 {
			c.OutPorts[i] = st.sa[i] % a.NumPorts
		}
	}
	return float64(len(c.Bufs)) * model.AppIPsecPostCycles
}

// CPUWork performs the encapsulation on the CPU, charging the software
// AES+SHA1 cost per ciphered byte.
func (a *IPsecGW) CPUWork(c *core.Chunk) float64 {
	st := c.State.(*ipsecState)
	cycles := 0.0
	for i := range c.Bufs {
		if c.OutPorts[i] == -2 {
			cycles += model.IPsecCPUPerPacketCycles +
				float64(model.IPsecCPUPerByteCycles*float64(st.espLens[i]))
		}
	}
	a.RunKernel(c) // same functional work, performed by the worker
	return cycles
}
