package apps

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"packetshader/internal/core"
	"packetshader/internal/ipsec"
	"packetshader/internal/lookup/ipv4"
	"packetshader/internal/lookup/ipv6"
	"packetshader/internal/openflow"
	"packetshader/internal/packet"
	"packetshader/internal/route"
	"packetshader/internal/sim"
)

var (
	srcMAC = packet.MAC{2, 0, 0, 0, 0, 1}
	dstMAC = packet.MAC{2, 0, 0, 0, 0, 2}
)

func mkChunk(frames ...[]byte) *core.Chunk {
	return mkChunkIn(packet.NewBufPool(2048), frames...)
}

func mkChunkIn(pool *packet.BufPool, frames ...[]byte) *core.Chunk {
	c := &core.Chunk{}
	for i, f := range frames {
		b := pool.Get(len(f))
		copy(b.Data, f)
		b.Port = i % 8
		b.Hash = uint32(i * 2654435761)
		c.Bufs = append(c.Bufs, b)
		c.OutPorts = append(c.OutPorts, 0)
	}
	return c
}

func udp4Frame(dst packet.IPv4Addr, size int) []byte {
	buf := make([]byte, max(size, 2048))
	return packet.BuildUDP4(buf, size, srcMAC, dstMAC, 0x0B000001, dst, 1111, 2222)
}

// vlanTagged pushes an 802.1Q tag onto frame the way an upstream
// OpenFlow switch would (frame must have four spare bytes of capacity).
func vlanTagged(t *testing.T, frame []byte) []byte {
	t.Helper()
	out, err := openflow.ApplyMods(frame, []openflow.Mod{{Type: openflow.ModSetVLAN, VLAN: 42}})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// ---------------------------------------------------------------------------
// IPv4 forwarding
// ---------------------------------------------------------------------------

func buildIPv4App(t *testing.T, entries []route.Entry) *IPv4Fwd {
	t.Helper()
	tbl, err := ipv4.Build(entries)
	if err != nil {
		t.Fatal(err)
	}
	return &IPv4Fwd{Table: tbl, NumPorts: 8}
}

func TestIPv4FwdFastPath(t *testing.T) {
	entries := []route.Entry{
		{Prefix: route.Prefix{Addr: 0x0A000000, Len: 8}, NextHop: 3},
	}
	app := buildIPv4App(t, entries)
	c := mkChunk(udp4Frame(0x0A010101, 64))
	pre := app.PreShade(c)
	if pre.Threads != 1 || pre.InBytes != 4 || pre.OutBytes != 2 {
		t.Errorf("pre = %+v", pre)
	}
	app.RunKernel(c)
	app.PostShade(c)
	if c.OutPorts[0] != 3 {
		t.Errorf("out port = %d, want 3", c.OutPorts[0])
	}
	// TTL decremented and checksum still valid.
	hdr := c.Bufs[0].Data[packet.EthHdrLen:]
	if hdr[8] != 63 {
		t.Errorf("TTL = %d, want 63", hdr[8])
	}
	if !packet.VerifyIPv4Checksum(hdr) {
		t.Error("checksum invalid after TTL decrement")
	}
}

// TestIPv4FwdTaggedFrame: behind an 802.1Q tag the IPv4 header starts
// four bytes later, and that is where the TTL and checksum are.
func TestIPv4FwdTaggedFrame(t *testing.T) {
	app := buildIPv4App(t, []route.Entry{
		{Prefix: route.Prefix{Addr: 0x0A000000, Len: 8}, NextHop: 3},
	})
	frame := vlanTagged(t, udp4Frame(0x0A010101, 64))
	want := append([]byte(nil), frame...)
	c := mkChunk(frame)
	app.PreShade(c)
	app.RunKernel(c)
	app.PostShade(c)
	if c.OutPorts[0] != 3 || app.SlowPath != 0 {
		t.Fatalf("out port = %d, slow path = %d, want 3 and 0", c.OutPorts[0], app.SlowPath)
	}
	got := c.Bufs[0].Data
	hdr := got[packet.EthHdrLen+packet.VLANTagLen:]
	if hdr[8] != 63 || !packet.VerifyIPv4Checksum(hdr) {
		t.Errorf("TTL = %d, checksum valid = %v; want 63 and true", hdr[8], packet.VerifyIPv4Checksum(hdr))
	}
	// Nothing else moved: the tag, the addresses and the payload.
	copy(want[packet.EthHdrLen+packet.VLANTagLen+8:], hdr[8:12])
	if string(got) != string(want) {
		t.Errorf("bytes outside TTL and checksum changed:\n got  %x\n want %x", got, want)
	}
}

func TestIPv4FwdNoRouteDrops(t *testing.T) {
	app := buildIPv4App(t, nil)
	c := mkChunk(udp4Frame(0x0A010101, 64))
	app.PreShade(c)
	app.RunKernel(c)
	app.PostShade(c)
	if c.OutPorts[0] != -1 {
		t.Errorf("unroutable packet got port %d", c.OutPorts[0])
	}
}

func TestIPv4FwdSlowPathTTLExpired(t *testing.T) {
	app := buildIPv4App(t, []route.Entry{
		{Prefix: route.Prefix{Addr: 0, Len: 0}, NextHop: 1},
	})
	frame := udp4Frame(0x0A010101, 64)
	hdr := frame[packet.EthHdrLen:]
	hdr[8] = 1 // TTL 1: would expire
	binary.BigEndian.PutUint16(hdr[10:12], 0)
	cs := packet.Checksum(hdr[:20])
	binary.BigEndian.PutUint16(hdr[10:12], cs)
	c := mkChunk(frame)
	app.PreShade(c)
	app.RunKernel(c)
	app.PostShade(c)
	if c.OutPorts[0] != -1 {
		t.Error("TTL-expired packet forwarded")
	}
	if app.SlowPath != 1 {
		t.Errorf("slow path = %d", app.SlowPath)
	}
}

func TestIPv4FwdBadChecksumSlowPath(t *testing.T) {
	app := buildIPv4App(t, []route.Entry{
		{Prefix: route.Prefix{Addr: 0, Len: 0}, NextHop: 1},
	})
	frame := udp4Frame(0x0A010101, 64)
	frame[packet.EthHdrLen+10] ^= 0xff // corrupt checksum
	c := mkChunk(frame)
	app.PreShade(c)
	app.RunKernel(c)
	app.PostShade(c)
	if c.OutPorts[0] != -1 || app.SlowPath != 1 {
		t.Error("bad-checksum packet not punted")
	}
}

func TestIPv4CPUWorkMatchesKernel(t *testing.T) {
	entries := route.GenerateBGPTable(2000, 8, 5)
	app := buildIPv4App(t, entries)
	rng := rand.New(rand.NewSource(1))
	var frames [][]byte
	for i := 0; i < 64; i++ {
		e := entries[rng.Intn(len(entries))]
		frames = append(frames, udp4Frame(e.Prefix.Addr, 64))
	}
	gpuChunk := mkChunk(frames...)
	app.PreShade(gpuChunk)
	app.RunKernel(gpuChunk)
	app.PostShade(gpuChunk)

	cpuChunk := mkChunk(frames...)
	app.PreShade(cpuChunk)
	if cyc := app.CPUWork(cpuChunk); cyc <= 0 {
		t.Error("CPUWork charged no cycles")
	}
	app.PostShade(cpuChunk)
	for i := range frames {
		if gpuChunk.OutPorts[i] != cpuChunk.OutPorts[i] {
			t.Fatalf("packet %d: GPU port %d, CPU port %d", i,
				gpuChunk.OutPorts[i], cpuChunk.OutPorts[i])
		}
	}
}

// ---------------------------------------------------------------------------
// IPv6 forwarding
// ---------------------------------------------------------------------------

func udp6Frame(dst packet.IPv6Addr, size int) []byte {
	buf := make([]byte, 2048)
	src := packet.IPv6AddrFromParts(0x20010db800000001, 1)
	return packet.BuildUDP6(buf, size, srcMAC, dstMAC, src, dst, 6, 7)
}

func TestIPv6FwdForwardAndHopLimit(t *testing.T) {
	entries := []route.Entry6{
		{Prefix6: route.Prefix6{Hi: 0x20010db800000000, Len: 32}, NextHop: 5},
	}
	app := &IPv6Fwd{Table: ipv6.Build(entries), NumPorts: 8}
	dst := packet.IPv6AddrFromParts(0x20010db8aaaa0000, 99)
	c := mkChunk(udp6Frame(dst, 78))
	pre := app.PreShade(c)
	if pre.InBytes != 16 {
		t.Errorf("in bytes = %d, want 16 (four times IPv4's copy volume)", pre.InBytes)
	}
	app.RunKernel(c)
	app.PostShade(c)
	if c.OutPorts[0] != 5 {
		t.Errorf("port = %d, want 5", c.OutPorts[0])
	}
	if hl := c.Bufs[0].Data[packet.EthHdrLen+7]; hl != 63 {
		t.Errorf("hop limit = %d, want 63", hl)
	}
}

// TestIPv6FwdTaggedFrame: the hop limit of a tagged frame is at byte 25,
// and byte 21 — where an untagged frame has it — is the flow label's.
func TestIPv6FwdTaggedFrame(t *testing.T) {
	entries := []route.Entry6{
		{Prefix6: route.Prefix6{Hi: 0x20010db800000000, Len: 32}, NextHop: 5},
	}
	app := &IPv6Fwd{Table: ipv6.Build(entries), NumPorts: 8}
	frame := vlanTagged(t, udp6Frame(packet.IPv6AddrFromParts(0x20010db8aaaa0000, 99), 78))
	want := append([]byte(nil), frame...)
	want[packet.EthHdrLen+packet.VLANTagLen+7] = 63
	c := mkChunk(frame)
	app.PreShade(c)
	app.RunKernel(c)
	app.PostShade(c)
	if c.OutPorts[0] != 5 {
		t.Fatalf("port = %d, want 5", c.OutPorts[0])
	}
	if got := c.Bufs[0].Data; string(got) != string(want) {
		t.Errorf("forwarded frame:\n got  %x\n want %x (hop limit 63, nothing else touched)", got, want)
	}
}

func TestIPv6FwdHopLimitExpired(t *testing.T) {
	app := &IPv6Fwd{Table: ipv6.Build(nil), NumPorts: 8}
	dst := packet.IPv6AddrFromParts(1<<61, 0)
	frame := udp6Frame(dst, 78)
	frame[packet.EthHdrLen+7] = 1
	c := mkChunk(frame)
	app.PreShade(c)
	app.PostShade(c)
	if c.OutPorts[0] != -1 || app.SlowPath != 1 {
		t.Error("expired hop limit not punted")
	}
}

func TestIPv6CPUWorkMatchesKernel(t *testing.T) {
	entries := route.GenerateIPv6Table(1000, 8, 2)
	app := &IPv6Fwd{Table: ipv6.Build(entries), NumPorts: 8}
	rng := rand.New(rand.NewSource(2))
	var frames [][]byte
	for i := 0; i < 64; i++ {
		e := entries[rng.Intn(len(entries))]
		frames = append(frames, udp6Frame(packet.IPv6AddrFromParts(e.Prefix6.Hi, e.Prefix6.Lo), 78))
	}
	g := mkChunk(frames...)
	app.PreShade(g)
	app.RunKernel(g)
	app.PostShade(g)
	cchunk := mkChunk(frames...)
	app.PreShade(cchunk)
	app.CPUWork(cchunk)
	app.PostShade(cchunk)
	for i := range frames {
		if g.OutPorts[i] != cchunk.OutPorts[i] {
			t.Fatalf("packet %d diverges", i)
		}
	}
}

// ---------------------------------------------------------------------------
// OpenFlow switch
// ---------------------------------------------------------------------------

func TestOFSwitchExactMatch(t *testing.T) {
	sw := openflow.NewSwitch(16)
	frame := udp4Frame(0x0A0B0C0D, 64)
	c := mkChunk(frame)
	app := NewOFSwitch(sw, 8)
	app.PreShade(c)
	key := c.State.(*ofState).keys[0]
	sw.Exact.Insert(key, openflow.Action{Type: openflow.ActionOutput, Port: 6})

	app.RunKernel(c)
	app.PostShade(c)
	if c.OutPorts[0] != 6 {
		t.Errorf("port = %d, want 6", c.OutPorts[0])
	}
}

func TestOFSwitchWildcardFallback(t *testing.T) {
	sw := openflow.NewSwitch(16)
	sw.Wildcard.Insert(openflow.Rule{
		Wild: openflow.WAll, Priority: 1,
		Action: openflow.Action{Type: openflow.ActionOutput, Port: 2},
	})
	app := NewOFSwitch(sw, 8)
	c := mkChunk(udp4Frame(0x01020304, 64))
	app.PreShade(c)
	app.RunKernel(c)
	app.PostShade(c)
	if c.OutPorts[0] != 2 {
		t.Errorf("port = %d, want wildcard's 2", c.OutPorts[0])
	}
}

func TestOFSwitchMissDrops(t *testing.T) {
	sw := openflow.NewSwitch(16)
	app := NewOFSwitch(sw, 8)
	c := mkChunk(udp4Frame(0x01020304, 64))
	app.PreShade(c)
	app.RunKernel(c)
	app.PostShade(c)
	if c.OutPorts[0] != -1 {
		t.Error("miss not dropped")
	}
	if sw.Misses != 1 {
		t.Errorf("misses = %d", sw.Misses)
	}
}

func TestOFSwitchCPUAndGPUPathsAgree(t *testing.T) {
	sw := openflow.NewSwitch(1024)
	rng := rand.New(rand.NewSource(3))
	var frames [][]byte
	for i := 0; i < 32; i++ {
		frames = append(frames, udp4Frame(packet.IPv4Addr(rng.Uint32()), 64))
	}
	// Install exact entries for half of them.
	tmp := mkChunk(frames...)
	app := NewOFSwitch(sw, 8)
	app.PreShade(tmp)
	keys := tmp.State.(*ofState).keys
	for i := 0; i < 16; i++ {
		sw.Exact.Insert(keys[i], openflow.Action{Type: openflow.ActionOutput, Port: uint16(i % 8)})
	}
	sw.Wildcard.Insert(openflow.Rule{
		Wild: openflow.WAll &^ openflow.WNwProto, Priority: 3,
		Key:    openflow.FlowKey{NwProto: packet.ProtoUDP},
		Action: openflow.Action{Type: openflow.ActionOutput, Port: 7},
	})

	g := mkChunk(frames...)
	app.PreShade(g)
	app.RunKernel(g)
	app.PostShade(g)

	cpu := mkChunk(frames...)
	app.PreShade(cpu)
	app.CPUWork(cpu)
	app.PostShade(cpu)

	for i := range frames {
		if g.OutPorts[i] != cpu.OutPorts[i] {
			t.Fatalf("packet %d: GPU %d vs CPU %d", i, g.OutPorts[i], cpu.OutPorts[i])
		}
	}
}

// TestOFSwitchRecycledChunk: the core free list hands a chunk back with
// the State of its previous use. PreShade must reuse that state (that
// it allocates nothing is TestPreShadeRecycledChunkDoesNotAllocate's,
// for every app) and reset all of it: a chunk
// resolved on the CPU path (CPUWork sets resolved) that comes back
// through the GPU path must probe the exact table again, not replay the
// earlier verdict.
func TestOFSwitchRecycledChunk(t *testing.T) {
	sw := openflow.NewSwitch(16)
	app := NewOFSwitch(sw, 8)
	first, second := udp4Frame(0x0A0B0C0D, 64), udp4Frame(0x0A0B0C0E, 64)
	for port, f := range [][]byte{first, second} {
		tmp := mkChunk(f)
		app.PreShade(tmp)
		sw.Exact.Insert(tmp.State.(*ofState).keys[0],
			openflow.Action{Type: openflow.ActionOutput, Port: uint16(6 - 3*port)})
	}

	c := mkChunk(first)
	app.PreShade(c)
	app.CPUWork(c)
	app.PostShade(c)
	if c.OutPorts[0] != 6 {
		t.Fatalf("CPU path: port = %d, want 6", c.OutPorts[0])
	}

	st := c.State
	copy(c.Bufs[0].Data, second)
	app.PreShade(c)
	if c.State != st {
		t.Error("PreShade replaced the recycled chunk's state")
	}
	app.RunKernel(c)
	if cycles := app.PostShade(c); cycles < app.exactProbeCycles() {
		t.Errorf("GPU path after a CPU pass charged %v cycles: exact probe skipped", cycles)
	}
	if c.OutPorts[0] != 3 {
		t.Errorf("GPU path after a CPU pass: port = %d, want 3 (6 is the stale CPU verdict)", c.OutPorts[0])
	}
}

func TestOFKernelCostGrowsWithWildcardTable(t *testing.T) {
	sw := openflow.NewSwitch(16)
	app := NewOFSwitch(sw, 8)
	small := app.Kernel().ExecTime(1024, 0)
	for i := 0; i < 256; i++ {
		sw.Wildcard.Insert(openflow.Rule{Wild: openflow.WAll, Priority: i,
			Action: openflow.Action{Type: openflow.ActionDrop}})
	}
	big := app.Kernel().ExecTime(1024, 0)
	if big <= small {
		t.Errorf("wildcard growth did not increase kernel cost: %v vs %v", big, small)
	}
}

func TestOFExactProbeCostGrowsWithTableSize(t *testing.T) {
	mk := func(n int) float64 {
		sw := openflow.NewSwitch(n)
		rng := rand.New(rand.NewSource(4))
		var k openflow.FlowKey
		for i := 0; i < n; i++ {
			k.NwSrc = packet.IPv4Addr(rng.Uint32())
			k.TpDst = uint16(i)
			sw.Exact.Insert(k, openflow.Action{})
		}
		return NewOFSwitch(sw, 8).exactProbeCycles()
	}
	if small, big := mk(1024), mk(1<<20); big <= small {
		t.Errorf("probe cost flat: %v vs %v", small, big)
	}
}

// ---------------------------------------------------------------------------
// IPsec gateway
// ---------------------------------------------------------------------------

func TestIPsecGWEncapsulatesVerifiably(t *testing.T) {
	// The third case leaves ESP no room: a 250 B frame in a pool of
	// 256 B cells must move to a larger cell, not fail or truncate. The
	// last is a jumbo frame: the ESP packet is built in the frame's own
	// cell, so no staging buffer's size caps it.
	for _, c := range []struct{ cell, size int }{{2048, 100}, {2048, 64}, {256, 250}, {2048, 4000}} {
		testIPsecGWEncap(t, packet.NewBufPool(c.cell), c.size)
	}
}

func testIPsecGWEncap(t *testing.T, pool *packet.BufPool, size int) {
	app := NewIPsecGW(8)
	frame := udp4Frame(0x0C000001, size)
	orig := make([]byte, len(frame))
	copy(orig, frame)
	c := mkChunkIn(pool, frame)
	pre := app.PreShade(c)
	if pre.StreamBytes <= 0 || pre.InBytes <= 0 {
		t.Errorf("pre = %+v", pre)
	}
	app.RunKernel(c)
	app.PostShade(c)
	if app.Errors != 0 {
		t.Fatalf("encap errors: %d", app.Errors)
	}
	out := c.Bufs[0].Data
	if len(out) <= len(orig) {
		t.Fatal("ESP did not grow the packet")
	}
	if string(out[:packet.EthHdrLen]) != string(orig[:packet.EthHdrLen]) {
		t.Error("Ethernet header lost in the rebuild")
	}
	// Decap with a receiver SA built from the same parameters.
	saIdx := c.State.(*ipsecState).sa[0]
	if c.OutPorts[0] != saIdx%8 {
		t.Errorf("routed to %d, want SA port %d", c.OutPorts[0], saIdx)
	}
	tx := app.SAs[saIdx]
	enc := make([]byte, 16)
	auth := make([]byte, 20)
	for j := range enc {
		enc[j] = byte(saIdx*16 + j)
	}
	for j := range auth {
		auth[j] = byte(saIdx*20 + j + 1)
	}
	rx := ipsec.NewSA(tx.SPI, uint32(0xabcd0000+saIdx), enc, auth, tx.LocalIP, tx.PeerIP)
	inner, err := rx.Decap(out[packet.EthHdrLen:])
	if err != nil {
		t.Fatalf("decap: %v", err)
	}
	if string(inner) != string(orig[packet.EthHdrLen:]) {
		t.Error("decapped inner differs from original")
	}
}

func TestIPsecGWNonIPv4Dropped(t *testing.T) {
	app := NewIPsecGW(8)
	dst := packet.IPv6AddrFromParts(1<<61, 0)
	c := mkChunk(udp6Frame(dst, 78))
	app.PreShade(c)
	app.RunKernel(c)
	app.PostShade(c)
	if c.OutPorts[0] != -1 {
		t.Error("IPv6 packet encapsulated by IPv4 tunnel app")
	}
}

// TestIPsecGWRefusesTaggedFrame: a tunnel endpoint takes untagged IP;
// "tag + packet" must not go into the tunnel as the inner packet.
func TestIPsecGWRefusesTaggedFrame(t *testing.T) {
	app := NewIPsecGW(8)
	frame := vlanTagged(t, udp4Frame(0x0C000001, 64))
	c := mkChunk(frame)
	app.PreShade(c)
	app.RunKernel(c)
	app.PostShade(c)
	if c.OutPorts[0] != -1 || app.Errors != 1 {
		t.Fatalf("tagged frame: port = %d, errors = %d, want -1 and 1", c.OutPorts[0], app.Errors)
	}
	if string(c.Bufs[0].Data) != string(frame) {
		t.Error("the refused frame's bytes changed")
	}
}

// TestIPsecGWRefusesUnencodableFrame: a replayed capture can hold a
// frame whose ESP form no IPv4 total length can state. It is counted and
// dropped, with its bytes as they arrived, and the SA's next packet
// still goes out with sequence number 1.
func TestIPsecGWRefusesUnencodableFrame(t *testing.T) {
	app := NewIPsecGW(1)
	huge := make([]byte, 70000)
	copy(huge, udp4Frame(0x0C000001, 64)) // a valid 64 B packet and 69,936 B of trailer
	c := mkChunk(huge, udp4Frame(0x0C000001, 64))
	app.PreShade(c)
	app.RunKernel(c)
	app.PostShade(c)
	if app.Errors != 1 || c.OutPorts[0] != -1 {
		t.Fatalf("70,000 B frame: errors = %d, port = %d, want 1 and -1", app.Errors, c.OutPorts[0])
	}
	if string(c.Bufs[0].Data) != string(huge) {
		t.Error("the refused frame's bytes changed")
	}
	if c.OutPorts[1] != 0 {
		t.Fatalf("64 B frame behind it: port = %d, want 0", c.OutPorts[1])
	}
	if seq := binary.BigEndian.Uint32(c.Bufs[1].Data[packet.EthHdrLen+packet.IPv4HdrLen+4:]); seq != 1 {
		t.Errorf("sequence number %d, want 1: the refusal consumed one", seq)
	}
}

func TestIPsecGWCPUPathSameResult(t *testing.T) {
	app := NewIPsecGW(8)
	app2 := NewIPsecGW(8) // fresh SAs so sequence numbers match
	var frames [][]byte
	for i := 0; i < 8; i++ {
		frames = append(frames, udp4Frame(packet.IPv4Addr(0x0C000000+uint32(i)), 64+i*10))
	}
	g := mkChunk(frames...)
	app.PreShade(g)
	app.RunKernel(g)
	app.PostShade(g)
	c := mkChunk(frames...)
	app2.PreShade(c)
	if cyc := app2.CPUWork(c); cyc <= 0 {
		t.Error("no CPU cycles charged")
	}
	app2.PostShade(c)
	for i := range frames {
		if string(g.Bufs[i].Data) != string(c.Bufs[i].Data) {
			t.Fatalf("packet %d: GPU and CPU ESP output differ", i)
		}
		if g.OutPorts[i] != c.OutPorts[i] {
			t.Fatalf("packet %d: ports differ", i)
		}
	}
}

func TestIPsecGWThroughputMetricBytes(t *testing.T) {
	// Pre-shading reports stream bytes ≈ ESP-grown sizes, which drive
	// the GPU cipher cost.
	app := NewIPsecGW(8)
	c := mkChunk(udp4Frame(0x0C000001, 1000))
	pre := app.PreShade(c)
	innerLen := 1000 - packet.EthHdrLen
	want := innerLen + ipsec.EncapOverhead(innerLen)
	if pre.StreamBytes != want {
		t.Errorf("stream bytes = %d, want %d", pre.StreamBytes, want)
	}
}

// simEnv and simTime are tiny helpers for router-level app tests.
func simEnv() *sim.Env { return sim.NewEnv() }

func simTime(ms int) sim.Time { return sim.Time(sim.Duration(ms) * sim.Millisecond) }

// garbageSource injects malformed frames mixed with valid ones —
// failure injection for the router fast path.
type garbageSource struct{ entries []route.Entry }

func (s garbageSource) Fill(b *packet.Buf, port, queue int, seq uint64) {
	switch seq % 4 {
	case 0: // valid routed packet
		e := s.entries[int(seq)%len(s.entries)]
		b.Data = packet.BuildUDP4(b.Data[:cap(b.Data)], 64, srcMAC, dstMAC,
			0x0A000001, e.Prefix.Addr, 5, 5)
	case 1: // random bytes
		x := seq * 0x9e3779b97f4a7c15
		for i := range b.Data {
			b.Data[i] = byte(x >> (uint(i) % 56))
		}
	case 2: // corrupted checksum
		b.Data = packet.BuildUDP4(b.Data[:cap(b.Data)], 64, srcMAC, dstMAC,
			1, 2, 3, 4)
		b.Data[packet.EthHdrLen+10] ^= 0xFF
	default: // TTL already at 1
		b.Data = packet.BuildUDP4(b.Data[:cap(b.Data)], 64, srcMAC, dstMAC,
			1, 2, 3, 4)
		hdr := b.Data[packet.EthHdrLen:]
		hdr[8] = 1
		hdr[10], hdr[11] = 0, 0
		cs := packet.Checksum(hdr[:20])
		hdr[10], hdr[11] = byte(cs>>8), byte(cs)
	}
}

// TestRouterSurvivesGarbageFlood: a 75%-malformed traffic mix must not
// crash the pipeline; valid packets still forward and the slow path
// counts the rest.
func TestRouterSurvivesGarbageFlood(t *testing.T) {
	entries := route.GenerateBGPTable(2000, 8, 6)
	for _, mode := range []core.Mode{core.ModeCPUOnly, core.ModeGPU} {
		app := buildIPv4App(t, entries)
		env := simEnv()
		cfg := core.DefaultConfig()
		cfg.Mode = mode
		cfg.IO.Nodes, cfg.IO.Ports = 1, 2
		cfg.OfferedGbpsPerPort = 5
		r := core.New(env, cfg, app)
		r.SetSource(garbageSource{entries: entries})
		r.Start()
		env.Run(simTime(3))
		_, _, tx, _ := r.Engine.AggregateStats()
		if tx == 0 {
			t.Errorf("mode %v: no valid packets forwarded through the flood", mode)
		}
		if app.SlowPath == 0 {
			t.Errorf("mode %v: no slow-path punts despite 75%% garbage", mode)
		}
		// Roughly three quarters should be punted/dropped.
		total := r.Stats.Packets
		if app.SlowPath < total/2 {
			t.Errorf("mode %v: slow path %d of %d, want ≈75%%", mode, app.SlowPath, total)
		}
	}
}

func TestOFSwitchAppliesModifyActions(t *testing.T) {
	sw := openflow.NewSwitch(16)
	frame := udp4Frame(0x0A0B0C0D, 100)
	c := mkChunk(frame)
	app := NewOFSwitch(sw, 8)
	app.PreShade(c)
	key := c.State.(*ofState).keys[0]
	newDst := packet.MAC{9, 8, 7, 6, 5, 4}
	sw.Exact.Insert(key, openflow.Action{
		Type: openflow.ActionOutput, Port: 3,
		Mods: []openflow.Mod{
			{Type: openflow.ModSetDlDst, MAC: newDst},
			{Type: openflow.ModSetNwDst, IP: packet.IPv4Addr(0x01010101)},
		},
	})
	app.RunKernel(c)
	app.PostShade(c)
	if c.OutPorts[0] != 3 {
		t.Fatalf("port = %d", c.OutPorts[0])
	}
	var d packet.Decoder
	if err := d.Decode(c.Bufs[0].Data); err != nil {
		t.Fatal(err)
	}
	if d.Eth.Dst != newDst || d.IPv4.Dst != 0x01010101 {
		t.Errorf("rewrites not applied: %v %v", d.Eth.Dst, d.IPv4.Dst)
	}
	if !packet.VerifyIPv4Checksum(c.Bufs[0].Data[packet.EthHdrLen:]) {
		t.Error("checksum broken by rewrite")
	}
}

// allApps returns one instance of every App in the package.
func allApps(t *testing.T) map[string]core.App {
	entries := []route.Entry{
		{Prefix: route.Prefix{Addr: 0x0A000000, Len: 8}, NextHop: 3},
	}
	entries6 := []route.Entry6{
		{Prefix6: route.Prefix6{Hi: 0x20010db800000000, Len: 32}, NextHop: 5},
	}
	multi, _, _ := newMulti(t)
	_, term := termFixture(t)
	return map[string]core.App{
		"ipv4fwd":   buildIPv4App(t, entries),
		"ipv6fwd":   &IPv6Fwd{Table: ipv6.Build(entries6), NumPorts: 8},
		"ofswitch":  NewOFSwitch(openflow.NewSwitch(16), 8),
		"ipsecgw":   NewIPsecGW(8),
		"ipsecterm": term,
		"multiapp":  multi,
	}
}

// TestPreShadeWritesEveryOutPort pins the App contract core relies on:
// PreShade must write every OutPorts slot (forward, -1 drop, or -2 slow
// path), because worker.fetchChunk recycles chunks WITHOUT clearing
// OutPorts. Every slot is poisoned with a sentinel before PreShade; a
// surviving sentinel would mean a recycled chunk could leak a stale
// forwarding decision.
func TestPreShadeWritesEveryOutPort(t *testing.T) {
	const sentinel = 0x7ead
	garbage := make([]byte, 60) // non-IP noise
	for i := range garbage {
		garbage[i] = byte(i * 37)
	}
	short := []byte{1, 2, 3}
	// A frame mix no single app fully accepts: valid IPv4/UDP, valid
	// IPv6/UDP, garbage, and a truncated runt.
	mix := [][]byte{
		udp4Frame(0x0A010101, 64),
		udp4Frame(0x0B010101, 64),
		udp6Frame(packet.IPv6AddrFromParts(0x20010db8aaaa0000, 9), 78),
		garbage,
		short,
	}
	for name, app := range allApps(t) {
		c := mkChunk(mix...)
		for i := range c.OutPorts {
			c.OutPorts[i] = sentinel
		}
		app.PreShade(c)
		for i, p := range c.OutPorts {
			if p == sentinel {
				t.Errorf("%s: PreShade left OutPorts[%d] unwritten", name, i)
			}
		}
	}
}

// TestPreShadeRecycledChunkDoesNotAllocate: a chunk comes back from the
// core free list with its State, and everything PreShade needs is in it
// — the per-packet arrays and the packet.Decoder. One allocation here
// is one per chunk, some 190 per simulated millisecond of ipv4-64B.
func TestPreShadeRecycledChunkDoesNotAllocate(t *testing.T) {
	frames := [][]byte{
		udp4Frame(0x0A010101, 64),
		udp4Frame(0x0AC80001, 64), // MultiApp's tunnel subnet: both sub-apps get one
		udp6Frame(packet.IPv6AddrFromParts(0x20010db8aaaa0000, 9), 78),
	}
	for name, app := range allApps(t) {
		c := mkChunk(frames...)
		refill := func() {
			for i, f := range frames { // IPv4Fwd decrements the TTL in place
				copy(c.Bufs[i].Data, f)
			}
		}
		app.PreShade(c) // the chunk's first use builds its state
		if n := testing.AllocsPerRun(100, func() { refill(); app.PreShade(c) }); n != 0 {
			t.Errorf("%s: PreShade on a recycled chunk allocates %v times, want 0", name, n)
		}
	}
}
