package apps

import (
	"testing"

	"packetshader/internal/ipsec"
	"packetshader/internal/lookup/ipv4"
	"packetshader/internal/packet"
	"packetshader/internal/route"
)

// termFixture builds a matched gateway/terminator pair: the gateway's
// outbound SA parameters are mirrored into the terminator's inbound SA.
func termFixture(t *testing.T) (*IPsecGW, *IPsecTerm) {
	t.Helper()
	gw := NewIPsecGW(8)
	var inbound []*ipsec.SA
	for i, tx := range gw.SAs {
		enc := make([]byte, 16)
		auth := make([]byte, 20)
		for j := range enc {
			enc[j] = byte(i*16 + j)
		}
		for j := range auth {
			auth[j] = byte(i*20 + j + 1)
		}
		inbound = append(inbound, ipsec.NewSA(tx.SPI, 0xabcd0000+uint32(i),
			enc, auth, tx.LocalIP, tx.PeerIP))
	}
	tbl, err := ipv4.Build([]route.Entry{
		{Prefix: route.Prefix{Addr: 0x0C000000, Len: 8}, NextHop: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return gw, NewIPsecTerm(inbound, tbl, 8)
}

// encapFrames runs frames through the gateway and returns the ESP
// frames it produced.
func encapFrames(t *testing.T, gw *IPsecGW, frames ...[]byte) [][]byte {
	t.Helper()
	c := mkChunk(frames...)
	gw.PreShade(c)
	gw.RunKernel(c)
	gw.PostShade(c)
	var out [][]byte
	for i, b := range c.Bufs {
		if c.OutPorts[i] < 0 {
			t.Fatalf("gateway dropped frame %d", i)
		}
		cp := make([]byte, len(b.Data))
		copy(cp, b.Data)
		out = append(out, cp)
	}
	return out
}

func TestIPsecTermDecapsAndRoutes(t *testing.T) {
	gw, term := termFixture(t)
	orig := udp4Frame(0x0C123456, 120)
	want := make([]byte, len(orig))
	copy(want, orig)
	esp := encapFrames(t, gw, orig)

	c := mkChunk(esp...)
	term.PreShade(c)
	term.RunKernel(c)
	term.PostShade(c)
	if c.OutPorts[0] != 6 {
		t.Fatalf("inner packet routed to %d, want 6 (12/8 route)", c.OutPorts[0])
	}
	// The frame now carries the original inner packet.
	got := c.Bufs[0].Data[packet.EthHdrLen:]
	if string(got) != string(want[packet.EthHdrLen:]) {
		t.Error("inner packet corrupted through encap/decap")
	}
	if term.AuthFail+term.BadSPI+term.Replayed+term.Malformed != 0 {
		t.Errorf("unexpected failures: %+v", term)
	}
}

func TestIPsecTermTamperCounted(t *testing.T) {
	gw, term := termFixture(t)
	esp := encapFrames(t, gw, udp4Frame(0x0C000001, 80))
	esp[0][packet.EthHdrLen+30] ^= 0xFF
	c := mkChunk(esp...)
	term.PreShade(c)
	term.RunKernel(c)
	term.PostShade(c)
	if c.OutPorts[0] != -1 || term.AuthFail != 1 {
		t.Errorf("tampered packet: port %d, authFail %d", c.OutPorts[0], term.AuthFail)
	}
}

func TestIPsecTermReplayCounted(t *testing.T) {
	gw, term := termFixture(t)
	esp := encapFrames(t, gw, udp4Frame(0x0C000001, 80))
	dup := make([]byte, len(esp[0]))
	copy(dup, esp[0])
	c := mkChunk(esp[0], dup)
	term.PreShade(c)
	term.RunKernel(c)
	term.PostShade(c)
	if c.OutPorts[0] < 0 {
		t.Error("first copy rejected")
	}
	if c.OutPorts[1] != -1 || term.Replayed != 1 {
		t.Errorf("replay: port %d, count %d", c.OutPorts[1], term.Replayed)
	}
}

func TestIPsecTermUnknownSPI(t *testing.T) {
	gw, _ := termFixture(t)
	// Terminator with NO SAs: every ESP packet is a bad SPI.
	tbl, _ := ipv4.Build(nil)
	empty := NewIPsecTerm(nil, tbl, 8)
	esp := encapFrames(t, gw, udp4Frame(0x0C000001, 80))
	c := mkChunk(esp...)
	empty.PreShade(c)
	empty.RunKernel(c)
	empty.PostShade(c)
	if c.OutPorts[0] != -1 || empty.BadSPI != 1 {
		t.Errorf("unknown SPI: port %d, count %d", c.OutPorts[0], empty.BadSPI)
	}
}

func TestIPsecTermNonESPMalformed(t *testing.T) {
	_, term := termFixture(t)
	c := mkChunk(udp4Frame(0x0C000001, 64)) // plain UDP, not ESP
	term.PreShade(c)
	term.RunKernel(c)
	term.PostShade(c)
	if c.OutPorts[0] != -1 || term.Malformed != 1 {
		t.Errorf("non-ESP: port %d, malformed %d", c.OutPorts[0], term.Malformed)
	}
}

// TestIPsecTermRefusesTaggedFrame: Decap reads the outer header at
// EthHdrLen, so an ESP frame behind an 802.1Q tag is refused in
// pre-shading, before it can be counted as an authentication failure.
func TestIPsecTermRefusesTaggedFrame(t *testing.T) {
	gw, term := termFixture(t)
	esp := encapFrames(t, gw, udp4Frame(0x0C000001, 80))[0]
	c := mkChunk(vlanTagged(t, append(make([]byte, 0, len(esp)+packet.VLANTagLen), esp...)))
	term.PreShade(c)
	if c.OutPorts[0] != -1 || term.Malformed != 1 {
		t.Fatalf("tagged ESP after PreShade: port %d, malformed %d, want -1 and 1", c.OutPorts[0], term.Malformed)
	}
	term.RunKernel(c)
	term.PostShade(c)
	if c.OutPorts[0] != -1 || term.AuthFail+term.BadSPI+term.Replayed != 0 {
		t.Errorf("tagged ESP: port %d, counters %+v", c.OutPorts[0], term)
	}
}

func TestIPsecRoundTripThroughBothApps(t *testing.T) {
	// Gateway and terminator chained: many packets of many sizes.
	gw, term := termFixture(t)
	var frames [][]byte
	var originals [][]byte
	for i := 0; i < 32; i++ {
		f := udp4Frame(packet.IPv4Addr(0x0C000000+uint32(i)), 64+i*40)
		cp := make([]byte, len(f))
		copy(cp, f)
		originals = append(originals, cp)
		frames = append(frames, f)
	}
	esp := encapFrames(t, gw, frames...)
	c := mkChunk(esp...)
	term.PreShade(c)
	term.RunKernel(c)
	term.PostShade(c)
	for i := range originals {
		if c.OutPorts[i] != 6 {
			t.Fatalf("packet %d dropped/misrouted: %d", i, c.OutPorts[i])
		}
		if string(c.Bufs[i].Data[packet.EthHdrLen:]) != string(originals[i][packet.EthHdrLen:]) {
			t.Fatalf("packet %d corrupted", i)
		}
	}
}

func TestIPsecTermCPUPath(t *testing.T) {
	gw, term := termFixture(t)
	esp := encapFrames(t, gw, udp4Frame(0x0C000001, 100))
	c := mkChunk(esp...)
	term.PreShade(c)
	if cyc := term.CPUWork(c); cyc <= 0 {
		t.Error("no cycles charged")
	}
	term.PostShade(c)
	if c.OutPorts[0] != 6 {
		t.Errorf("CPU path routed to %d", c.OutPorts[0])
	}
}
