package apps

import (
	"testing"

	"packetshader/internal/core"
	"packetshader/internal/lookup/ipv4"
	"packetshader/internal/packet"
	"packetshader/internal/route"
)

// classifier: packets destined to 10.200/16 go to the IPsec tunnel
// (app 1); everything else is plain IPv4 forwarding (app 0).
func tunnelClassifier(d *packet.Decoder, b *packet.Buf) int {
	if !d.Has(packet.LayerIPv4) {
		return -1
	}
	if uint32(d.IPv4.Dst)>>16 == 0x0AC8 {
		return 1
	}
	return 0
}

func newMulti(t *testing.T) (*MultiApp, *IPv4Fwd, *IPsecGW) {
	t.Helper()
	entries := []route.Entry{
		{Prefix: route.Prefix{Addr: 0x0B000000, Len: 8}, NextHop: 2},
		{Prefix: route.Prefix{Addr: 0x0AC80000, Len: 16}, NextHop: 5},
	}
	tbl, err := ipv4.Build(entries)
	if err != nil {
		t.Fatal(err)
	}
	fwd := &IPv4Fwd{Table: tbl, NumPorts: 8}
	gw := NewIPsecGW(8)
	return NewMultiApp(tunnelClassifier, 50, fwd, gw), fwd, gw
}

func TestMultiAppSplitsByClassifier(t *testing.T) {
	m, _, _ := newMulti(t)
	c := mkChunk(
		udp4Frame(0x0B010101, 64), // plain → app 0
		udp4Frame(0x0AC80001, 64), // tunnel subnet → app 1
		udp4Frame(0x0B020202, 64), // plain → app 0
	)
	pre := m.PreShade(c)
	st := c.State.(*multiState)
	if st.assignment[0] != 0 || st.assignment[1] != 1 || st.assignment[2] != 0 {
		t.Fatalf("assignment = %v", st.assignment)
	}
	if len(st.subChunks[0].Bufs) != 2 || len(st.subChunks[1].Bufs) != 1 {
		t.Fatalf("sub-chunk sizes %d/%d", len(st.subChunks[0].Bufs), len(st.subChunks[1].Bufs))
	}
	if pre.Threads != 3 {
		t.Errorf("threads = %d, want 3", pre.Threads)
	}
	// IPsec contributes stream bytes; IPv4 does not.
	if pre.StreamBytes == 0 {
		t.Error("no stream bytes from the IPsec sub-chunk")
	}
}

func TestMultiAppEndToEnd(t *testing.T) {
	m, _, gw := newMulti(t)
	c := mkChunk(
		udp4Frame(0x0B010101, 64),
		udp4Frame(0x0AC80001, 128),
	)
	plainLen := len(c.Bufs[0].Data)
	tunnelLen := len(c.Bufs[1].Data)
	m.PreShade(c)
	m.RunKernel(c)
	m.PostShade(c)
	// Plain packet: forwarded per the route table (10.0.0.0/8... dst
	// 0x0B = 11/8 route → hop 2).
	if c.OutPorts[0] != 2 {
		t.Errorf("plain packet port = %d, want 2", c.OutPorts[0])
	}
	if len(c.Bufs[0].Data) != plainLen {
		t.Error("plain packet length changed")
	}
	// Tunnel packet: ESP-encapsulated (grew) and routed to its SA port.
	if len(c.Bufs[1].Data) <= tunnelLen {
		t.Error("tunnel packet not encapsulated")
	}
	if c.OutPorts[1] < 0 || c.OutPorts[1] >= 8 {
		t.Errorf("tunnel packet port = %d", c.OutPorts[1])
	}
	if gw.Errors != 0 {
		t.Errorf("encap errors: %d", gw.Errors)
	}
}

func TestMultiAppUnclassifiedDropped(t *testing.T) {
	m, _, _ := newMulti(t)
	dst := packet.IPv6AddrFromParts(1<<61, 0)
	c := mkChunk(udp6Frame(dst, 78)) // IPv6: classifier returns -1
	m.PreShade(c)
	m.RunKernel(c)
	m.PostShade(c)
	if c.OutPorts[0] != -1 {
		t.Errorf("unclassified packet forwarded to %d", c.OutPorts[0])
	}
}

func TestMultiAppCPUPathAgrees(t *testing.T) {
	mGPU, _, _ := newMulti(t)
	mCPU, _, _ := newMulti(t) // fresh SAs so sequence numbers align
	frames := [][]byte{
		udp4Frame(0x0B010101, 64),
		udp4Frame(0x0AC80001, 90),
		udp4Frame(0x0B030303, 200),
	}
	g := mkChunk(frames...)
	mGPU.PreShade(g)
	mGPU.RunKernel(g)
	mGPU.PostShade(g)
	c := mkChunk(frames...)
	mCPU.PreShade(c)
	if cyc := mCPU.CPUWork(c); cyc <= 0 {
		t.Error("CPUWork charged nothing")
	}
	mCPU.PostShade(c)
	for i := range frames {
		if g.OutPorts[i] != c.OutPorts[i] {
			t.Fatalf("packet %d: GPU port %d vs CPU port %d", i, g.OutPorts[i], c.OutPorts[i])
		}
		if string(g.Bufs[i].Data) != string(c.Bufs[i].Data) {
			t.Fatalf("packet %d: payloads diverge", i)
		}
	}
}

// TestMultiAppRecycledChunk: the state a chunk brings back from the
// free list — sub-chunks, back references, the sub-apps' own states —
// belongs to an earlier chunk with a different mix. A recycled chunk
// must come out exactly as a fresh one does: same ports, same bytes.
// The ESP sequence numbers are in those bytes, so a tunnel app that ran
// over the stale sub-chunk of a round that gave it nothing shows in the
// round after.
func TestMultiAppRecycledChunk(t *testing.T) {
	rounds := [][][]byte{
		{udp4Frame(0x0AC80001, 90), udp4Frame(0x0B010101, 64), udp4Frame(0x0AC80002, 64)},                          // tunnel, plain, tunnel
		{udp4Frame(0x0B020202, 64), udp6Frame(packet.IPv6AddrFromParts(1<<61, 0), 78), udp4Frame(0x0B030303, 200)}, // plain, unclassified, plain
		{udp4Frame(0x0B040404, 64), udp4Frame(0x0AC80003, 300), udp4Frame(0x0AC80001, 64)},                         // plain, tunnel, tunnel
	}
	run := func(m *MultiApp, c *core.Chunk) {
		m.PreShade(c)
		m.RunKernel(c)
		m.PostShade(c)
	}
	fresh, _, _ := newMulti(t)
	recycled, _, gw := newMulti(t)
	c := mkChunk(rounds[0]...)
	for r, frames := range rounds {
		want := mkChunk(frames...)
		run(fresh, want)

		st := c.State
		for i, f := range frames {
			c.Bufs[i].Reset(len(f))
			copy(c.Bufs[i].Data, f)
		}
		run(recycled, c)
		if r > 0 && c.State != st {
			t.Errorf("round %d: PreShade replaced the recycled chunk's state", r)
		}
		for i := range frames {
			if c.OutPorts[i] != want.OutPorts[i] {
				t.Errorf("round %d packet %d: port %d on the recycled chunk, %d on a fresh one", r, i, c.OutPorts[i], want.OutPorts[i])
			}
			if string(c.Bufs[i].Data) != string(want.Bufs[i].Data) {
				t.Errorf("round %d packet %d: bytes differ between the recycled chunk and a fresh one", r, i)
			}
		}
	}
	if gw.Errors != 0 {
		t.Errorf("gateway errors = %d", gw.Errors)
	}
}

func TestMultiAppKernelComposesProfiles(t *testing.T) {
	m, _, _ := newMulti(t)
	// All-IPv4 chunk → lookup-like profile, no stream rate.
	c := mkChunk(udp4Frame(0x0B010101, 64), udp4Frame(0x0B010102, 64))
	m.PreShade(c)
	if m.Kernel().StreamBytesPerSec != 0 {
		t.Error("pure-IPv4 mix has a stream rate")
	}
	// Mixed chunk → stream rate from IPsec appears.
	c2 := mkChunk(udp4Frame(0x0B010101, 64), udp4Frame(0x0AC80001, 64))
	m.PreShade(c2)
	if m.Kernel().StreamBytesPerSec == 0 {
		t.Error("mixed chunk lost the IPsec stream profile")
	}
}

func TestMultiAppInRouter(t *testing.T) {
	// End-to-end through the framework in both modes.
	m, _, _ := newMulti(t)
	cfg := core.DefaultConfig()
	cfg.IO.Nodes, cfg.IO.Ports = 1, 2
	cfg.PacketSize = 64
	cfg.OfferedGbpsPerPort = 3
	runRouterApp(t, cfg, m)
}

// runRouterApp drives a router with a 50/50 plain/tunnel source.
func runRouterApp(t *testing.T, cfg core.Config, app core.App) {
	t.Helper()
	for _, mode := range []core.Mode{core.ModeCPUOnly, core.ModeGPU} {
		cfg := cfg
		cfg.Mode = mode
		env := simEnv()
		r := core.New(env, cfg, app)
		r.SetSource(mixSource{})
		r.Start()
		env.Run(simTime(3))
		_, _, tx, _ := r.Engine.AggregateStats()
		if tx == 0 {
			t.Errorf("mode %v: nothing forwarded", mode)
		}
	}
}

type mixSource struct{}

func (mixSource) Fill(b *packet.Buf, port, queue int, seq uint64) {
	dst := packet.IPv4Addr(0x0B000001 + uint32(seq))
	if seq%2 == 0 {
		dst = packet.IPv4Addr(0x0AC80000 | uint32(seq)&0xffff)
	}
	b.Data = packet.BuildUDP4(b.Data[:cap(b.Data)], 64, srcMAC, dstMAC,
		0x0B000099, dst, uint16(seq), uint16(seq>>16))
}
