package packet

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

var (
	testSrcMAC = MAC{0x00, 0x1b, 0x21, 0x01, 0x02, 0x03}
	testDstMAC = MAC{0x00, 0x1b, 0x21, 0x0a, 0x0b, 0x0c}
)

func TestIPv4AddrString(t *testing.T) {
	a := IPv4Addr(0xC0A80101)
	if got := a.String(); got != "192.168.1.1" {
		t.Errorf("String = %q, want 192.168.1.1", got)
	}
}

func TestIPv4AddrBytesRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := IPv4Addr(v)
		b := a.Bytes()
		return IPv4AddrFrom(b[:]) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPv6AddrPartsRoundTrip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		a := IPv6AddrFromParts(hi, lo)
		return a.Hi() == hi && a.Lo() == lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChecksumRFC1071Example(t *testing.T) {
	// Canonical example from RFC 1071 §3.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd trailing byte is padded with zero.
	even := Checksum([]byte{0xab, 0xcd, 0x12, 0x00})
	odd := Checksum([]byte{0xab, 0xcd, 0x12})
	if even != odd {
		t.Errorf("odd-length checksum %#04x != padded %#04x", odd, even)
	}
}

func TestChecksumVerifiesToZero(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		cs := Checksum(data)
		withCS := append(append([]byte{}, data...), byte(cs>>8), byte(cs))
		// A block including its own checksum sums to zero (0xffff
		// one's-complement), i.e. Checksum == 0.
		return Checksum(withCS) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPv4HeaderChecksumValid(t *testing.T) {
	var buf [64]byte
	frame := BuildUDP4(buf[:], 64, testSrcMAC, testDstMAC,
		IPv4Addr(0x0A000001), IPv4Addr(0x08080808), 1234, 53)
	if !VerifyIPv4Checksum(frame[EthHdrLen:]) {
		t.Error("built frame has invalid IPv4 checksum")
	}
	// Corrupt a byte: checksum must fail.
	frame[EthHdrLen+16] ^= 0xff
	if VerifyIPv4Checksum(frame[EthHdrLen:]) {
		t.Error("corrupted header passed checksum")
	}
}

func TestTTLDecrementIncrementalChecksum(t *testing.T) {
	// Property (RFC 1624): incrementally updating the checksum for a TTL
	// decrement must equal a full recompute.
	f := func(src, dst uint32, ttl uint8) bool {
		if ttl == 0 {
			ttl = 1
		}
		var buf [64]byte
		frame := BuildUDP4(buf[:], 64, testSrcMAC, testDstMAC,
			IPv4Addr(src), IPv4Addr(dst), 9, 9)
		hdr := frame[EthHdrLen : EthHdrLen+IPv4HdrLen]
		hdr[8] = ttl
		binary.BigEndian.PutUint16(hdr[10:12], 0)
		full := Checksum(hdr)
		binary.BigEndian.PutUint16(hdr[10:12], full)

		old16 := binary.BigEndian.Uint16(hdr[8:10])
		inc := ChecksumUpdateTTLDecrement(full, old16)

		hdr[8] = ttl - 1
		binary.BigEndian.PutUint16(hdr[10:12], 0)
		recomputed := Checksum(hdr)
		return inc == recomputed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTransportChecksumIPv4(t *testing.T) {
	// Known vector: UDP checksum over a tiny segment, verified by the
	// self-verification property (sum including checksum == 0).
	src, dst := IPv4Addr(0xc0a80001), IPv4Addr(0xc0a80002)
	seg := []byte{0x04, 0xd2, 0x00, 0x35, 0x00, 0x0a, 0x00, 0x00, 0xde, 0xad}
	cs := TransportChecksumIPv4(src, dst, ProtoUDP, seg)
	binary.BigEndian.PutUint16(seg[6:8], cs)
	acc := PseudoHeaderChecksumIPv4(src, dst, ProtoUDP, len(seg))
	if got := finishChecksum(sumWords(seg, acc)); got != 0 {
		t.Errorf("segment with checksum sums to %#04x, want 0", got)
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	h := EthernetHdr{Dst: testDstMAC, Src: testSrcMAC, EtherType: EtherTypeIPv6}
	var b [EthHdrLen]byte
	h.Encode(b[:])
	var g EthernetHdr
	payload, err := g.Decode(b[:])
	if err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Errorf("round trip: %+v != %+v", g, h)
	}
	if len(payload) != 0 {
		t.Errorf("payload len = %d, want 0", len(payload))
	}
}

func TestEthernetTruncated(t *testing.T) {
	var g EthernetHdr
	if _, err := g.Decode(make([]byte, 13)); err != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestIPv4RoundTripProperty(t *testing.T) {
	f := func(tos uint8, id uint16, ttl uint8, src, dst uint32, plen uint8) bool {
		h := IPv4Hdr{
			IHL: 5, TOS: tos, TotalLen: uint16(IPv4HdrLen) + uint16(plen),
			ID: id, TTL: ttl, Protocol: ProtoUDP,
			Src: IPv4Addr(src), Dst: IPv4Addr(dst),
		}
		b := make([]byte, int(h.TotalLen))
		h.Encode(b)
		var g IPv4Hdr
		payload, err := g.Decode(b)
		if err != nil {
			return false
		}
		h.Checksum = g.Checksum // filled by Encode
		return g == h && len(payload) == int(plen) && VerifyIPv4Checksum(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIPv4BadVersion(t *testing.T) {
	b := make([]byte, IPv4HdrLen)
	b[0] = 6<<4 | 5
	var g IPv4Hdr
	if _, err := g.Decode(b); err != ErrBadVersion {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestIPv4BadIHL(t *testing.T) {
	b := make([]byte, IPv4HdrLen)
	b[0] = 4<<4 | 3 // IHL 3 < 5
	var g IPv4Hdr
	if _, err := g.Decode(b); err != ErrBadHdrLen {
		t.Errorf("err = %v, want ErrBadHdrLen", err)
	}
}

func TestIPv6RoundTripProperty(t *testing.T) {
	f := func(tc uint8, fl uint32, nh, hl uint8, hi1, lo1, hi2, lo2 uint64, plen uint8) bool {
		h := IPv6Hdr{
			TrafficClass: tc, FlowLabel: fl & 0xfffff,
			PayloadLen: uint16(plen), NextHeader: nh, HopLimit: hl,
			Src: IPv6AddrFromParts(hi1, lo1), Dst: IPv6AddrFromParts(hi2, lo2),
		}
		b := make([]byte, IPv6HdrLen+int(plen))
		h.Encode(b)
		var g IPv6Hdr
		payload, err := g.Decode(b)
		if err != nil {
			return false
		}
		return g == h && len(payload) == int(plen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	h := UDPHdr{SrcPort: 1234, DstPort: 53, Length: 28, Checksum: 0xbeef}
	b := make([]byte, 28)
	h.Encode(b)
	var g UDPHdr
	payload, err := g.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if g != h || len(payload) != 20 {
		t.Errorf("round trip %+v payload %d", g, len(payload))
	}
}

func TestTCPRoundTrip(t *testing.T) {
	h := TCPHdr{SrcPort: 80, DstPort: 49152, Seq: 1 << 30, Ack: 77,
		DataOff: 5, Flags: 0x18, Window: 65535, Checksum: 0x1234, Urgent: 0}
	b := make([]byte, TCPHdrLen+4)
	h.Encode(b)
	var g TCPHdr
	payload, err := g.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Errorf("round trip: %+v != %+v", g, h)
	}
	if len(payload) != 4 {
		t.Errorf("payload = %d, want 4", len(payload))
	}
}

func TestDecoderUDP4Frame(t *testing.T) {
	var buf [128]byte
	frame := BuildUDP4(buf[:], 100, testSrcMAC, testDstMAC,
		IPv4Addr(0x0A000001), IPv4Addr(0xC0A80063), 5000, 6000)
	var d Decoder
	if err := d.Decode(frame); err != nil {
		t.Fatal(err)
	}
	if !d.Has(LayerEthernet) || !d.Has(LayerIPv4) || !d.Has(LayerUDP) {
		t.Errorf("layers = %08b", d.layers)
	}
	if d.IPv4.Dst != IPv4Addr(0xC0A80063) {
		t.Errorf("dst = %v", d.IPv4.Dst)
	}
	if d.UDP.DstPort != 6000 {
		t.Errorf("dstPort = %d", d.UDP.DstPort)
	}
	if d.VLANID != VLANNone {
		t.Errorf("VLANID = %d, want none", d.VLANID)
	}
	wantPayload := 100 - EthHdrLen - IPv4HdrLen - UDPHdrLen
	if len(d.Payload) != wantPayload {
		t.Errorf("payload = %d, want %d", len(d.Payload), wantPayload)
	}
}

func TestDecoderUDP6Frame(t *testing.T) {
	var buf [128]byte
	src := IPv6AddrFromParts(0x20010db800000000, 1)
	dst := IPv6AddrFromParts(0x20010db800000000, 2)
	frame := BuildUDP6(buf[:], 90, testSrcMAC, testDstMAC, src, dst, 7, 8)
	var d Decoder
	if err := d.Decode(frame); err != nil {
		t.Fatal(err)
	}
	if !d.Has(LayerIPv6) || !d.Has(LayerUDP) {
		t.Errorf("layers = %08b", d.layers)
	}
	if d.IPv6.Dst != dst {
		t.Errorf("dst = %v", d.IPv6.Dst)
	}
}

func TestDecoderVLAN(t *testing.T) {
	var buf [128]byte
	frame := BuildUDP4(buf[:], 80, testSrcMAC, testDstMAC, 1, 2, 3, 4)
	var d Decoder
	if err := d.Decode(tagged(frame, 42)); err != nil {
		t.Fatal(err)
	}
	if d.VLANID != 42 {
		t.Errorf("VLANID = %d, want 42", d.VLANID)
	}
	if !d.Has(LayerVLAN) || !d.Has(LayerIPv4) || !d.Has(LayerUDP) {
		t.Errorf("layers = %08b", d.layers)
	}
}

func TestDecoderUnknownEtherType(t *testing.T) {
	b := make([]byte, 60)
	binary.BigEndian.PutUint16(b[12:14], EtherTypeARP)
	var d Decoder
	if err := d.Decode(b); err != nil {
		t.Fatal(err)
	}
	if !d.Has(LayerPayload) || d.Has(LayerIPv4) {
		t.Errorf("layers = %08b", d.layers)
	}
}

func TestDecoderMalformedIPv4(t *testing.T) {
	b := make([]byte, 20) // Ethernet + 6 bytes only
	binary.BigEndian.PutUint16(b[12:14], EtherTypeIPv4)
	var d Decoder
	if err := d.Decode(b); err == nil {
		t.Error("truncated IPv4 decoded without error")
	}
}

func TestDecoderNoAllocSteadyState(t *testing.T) {
	var buf [128]byte
	frame := BuildUDP4(buf[:], 64, testSrcMAC, testDstMAC, 1, 2, 3, 4)
	var d Decoder
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.Decode(frame); err != nil {
			t.Fatal(err)
		}
		if !d.Has(LayerUDP) {
			t.Fatal("no UDP layer")
		}
	})
	if allocs != 0 {
		t.Errorf("Decode allocates %v/op in steady state, want 0", allocs)
	}
}

func TestBuildUDP4MinimumSizeClamped(t *testing.T) {
	var buf [64]byte
	frame := BuildUDP4(buf[:], 10, testSrcMAC, testDstMAC, 1, 2, 3, 4)
	if len(frame) != EthHdrLen+IPv4HdrLen+UDPHdrLen {
		t.Errorf("len = %d, want clamped to minimum", len(frame))
	}
}

func TestBuildDecodesConsistently(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, sz uint16) bool {
		size := 64 + int(sz)%1451
		buf := make([]byte, 1514)
		frame := BuildUDP4(buf, size, testSrcMAC, testDstMAC,
			IPv4Addr(src), IPv4Addr(dst), sp, dp)
		if len(frame) != size {
			return false
		}
		var d Decoder
		if err := d.Decode(frame); err != nil {
			return false
		}
		return d.IPv4.Src == IPv4Addr(src) && d.IPv4.Dst == IPv4Addr(dst) &&
			d.UDP.SrcPort == sp && d.UDP.DstPort == dp &&
			int(d.IPv4.TotalLen) == size-EthHdrLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTimestampRoundTrip(t *testing.T) {
	var buf [128]byte
	frame := BuildUDP4(buf[:], 64, testSrcMAC, testDstMAC, 1, 2, 3, 4)
	if !SetTimestamp(frame, 123456789012) {
		t.Fatal("SetTimestamp failed on a 64B frame")
	}
	ts, ok := Timestamp(frame)
	if !ok || ts != 123456789012 {
		t.Errorf("Timestamp = %d,%v", ts, ok)
	}
}

func TestTimestampTooSmall(t *testing.T) {
	frame := make([]byte, EthHdrLen+IPv4HdrLen+UDPHdrLen+4)
	if SetTimestamp(frame, 1) {
		t.Error("SetTimestamp succeeded on a frame with no room")
	}
}

func TestBufPoolRecycles(t *testing.T) {
	p := NewBufPool(2048)
	a := p.Get(64)
	if a.Size() != 64 {
		t.Errorf("size = %d", a.Size())
	}
	a.Data[0] = 0xAA
	a.Port, a.Queue, a.GenAt = 3, 2, 1
	a.Release()
	if p.FreeCount() != 1 {
		t.Errorf("free = %d, want 1", p.FreeCount())
	}
	b := p.Get(128)
	if p.Allocs != 1 {
		t.Errorf("allocs = %d, want 1 (recycled)", p.Allocs)
	}
	if b.Size() != 128 {
		t.Errorf("size = %d, want 128", b.Size())
	}
	if b.Port != 0 || b.Queue != 0 || b.GenAt != 0 {
		t.Error("metadata not reset on reuse")
	}
}

// TestBufPoolClassSelection pins the cell a request lands in at every
// class boundary: the smallest power-of-two cell that holds the frame
// plus 128 B of headroom, the headroom capped at the pool's cell size.
func TestBufPoolClassSelection(t *testing.T) {
	cases := []struct{ pool, n, cell int }{
		{2048, 0, 256}, {2048, 64, 256}, {2048, 128, 256},
		{2048, 129, 512}, {2048, 384, 512},
		{2048, 385, 1024}, {2048, 896, 1024},
		{2048, 897, 2048}, {2048, 1514, 2048}, {2048, 1920, 2048},
		// The headroom never takes a cell past the pool's own size...
		{2048, 1921, 2048}, {2048, 2048, 2048}, {128, 64, 256}, {256, 200, 256},
		// ...but a frame that does not fit gets the cell it needs.
		{2048, 2049, 4096}, {256, 9999, 16384},
	}
	for _, c := range cases {
		b := NewBufPool(c.pool).Get(c.n)
		if b.Size() != c.n || cap(b.Data) != c.cell {
			t.Errorf("NewBufPool(%d).Get(%d): size %d in a %d B cell, want %d in %d",
				c.pool, c.n, b.Size(), cap(b.Data), c.n, c.cell)
		}
	}
}

// TestBufPoolCellsDistinct carves more than a slab's worth of Bufs in
// two classes and checks no two cells (or Buf structs) overlap.
func TestBufPoolCellsDistinct(t *testing.T) {
	p := NewBufPool(2048)
	const n = 2*bufsPerSlab + 3
	bufs := make([]*Buf, 0, 2*n)
	for i := 0; i < n; i++ {
		bufs = append(bufs, p.Get(64), p.Get(1514))
	}
	seen := map[*Buf]bool{}
	for i, b := range bufs {
		if seen[b] {
			t.Fatalf("Buf %d handed out twice", i)
		}
		seen[b] = true
		cell := b.Data[:cap(b.Data)]
		for j := range cell {
			cell[j] = byte(i)
		}
	}
	for i, b := range bufs {
		cell := b.Data[:cap(b.Data)]
		if cell[0] != byte(i) || cell[len(cell)-1] != byte(i) {
			t.Fatalf("cell %d (%d B) aliases another", i, len(cell))
		}
	}
	if p.Allocs != 2*n || p.FreeCount() != 0 {
		t.Errorf("allocs %d free %d, want %d misses and nothing free", p.Allocs, p.FreeCount(), 2*n)
	}
	for _, b := range bufs {
		b.Release()
	}
	if p.FreeCount() != 2*n {
		t.Errorf("free = %d after releasing all, want %d", p.FreeCount(), 2*n)
	}
}

// TestBufResetPromotes: a frame that outgrows its cell moves to a
// larger one with its bytes intact, and the cell it left is the next
// one handed out.
func TestBufResetPromotes(t *testing.T) {
	p := NewBufPool(2048)
	b := p.Get(64)
	for i := range b.Data {
		b.Data[i] = byte(i + 1)
	}
	old := &b.Data[0]
	b.Reset(200) // fits the 256 B cell: same cell
	if &b.Data[0] != old || b.Size() != 200 {
		t.Fatalf("Reset within capacity moved the frame (size %d)", b.Size())
	}
	b.Reset(64)
	b.Reset(300)
	if b.Size() != 300 || cap(b.Data) != 512 {
		t.Fatalf("after Reset(300): size %d in a %d B cell, want 300 in 512", b.Size(), cap(b.Data))
	}
	for i := 0; i < 64; i++ {
		if b.Data[i] != byte(i+1) {
			t.Fatalf("byte %d = %#x after promotion, want %#x", i, b.Data[i], byte(i+1))
		}
	}
	if p.FreeCount() != 1 || p.Allocs != 2 {
		t.Errorf("free %d allocs %d, want the old cell free and 2 misses", p.FreeCount(), p.Allocs)
	}
	if c := p.Get(64); &c.Data[0] != old || p.Allocs != 2 {
		t.Errorf("old cell not reused (allocs %d)", p.Allocs)
	}
	// The promoted Buf goes back to the class of the cell it now owns.
	b.Release()
	if c := p.Get(300); c != b || p.Allocs != 2 {
		t.Errorf("promoted Buf not recycled in its new class (allocs %d)", p.Allocs)
	}
}

// TestBufResetWithoutPool: a pool-less Buf grows too.
func TestBufResetWithoutPool(t *testing.T) {
	b := &Buf{Data: []byte{1, 2, 3}}
	b.Reset(10)
	if b.Size() != 10 || b.Data[0] != 1 || b.Data[2] != 3 {
		t.Errorf("pool-less Reset(10) = %v", b.Data)
	}
	b.Release() // no-op
}

// TestBufIsOneCacheLine: a Buf fits one 64-byte cache line, exactly on
// 64-bit hosts, and slab Bufs sit on line boundaries, so reading or
// writing one Buf's metadata touches one line.
func TestBufIsOneCacheLine(t *testing.T) {
	size := unsafe.Sizeof(Buf{})
	if size > 64 || bits.UintSize == 64 && size != 64 {
		t.Fatalf("Buf is %d bytes, want 64 (at most 64 where int has 32 bits)", size)
	}
	if size != 64 {
		return
	}
	p := NewBufPool(2048)
	for i := 0; i < 2*bufsPerSlab+1; i++ {
		if a := uintptr(unsafe.Pointer(p.Get(64))); a%64 != 0 {
			t.Fatalf("Buf %d at %#x is not on a cache-line boundary", i, a)
		}
	}
}

func TestBufPoolSteadyStateNoAlloc(t *testing.T) {
	p := NewBufPool(2048)
	warm := make([]*Buf, 32)
	for i := range warm {
		warm[i] = p.Get(64)
	}
	for _, b := range warm {
		b.Release()
	}
	start := p.Allocs
	rng := rand.New(rand.NewSource(1))
	live := make([]*Buf, 0, 32)
	for i := 0; i < 1000; i++ {
		if len(live) < 32 && (len(live) == 0 || rng.Intn(2) == 0) {
			live = append(live, p.Get(64))
		} else {
			b := live[len(live)-1]
			live = live[:len(live)-1]
			b.Release()
		}
	}
	if p.Allocs != start {
		t.Errorf("steady state allocated %d new cells", p.Allocs-start)
	}
}

// TestDecoderNeverPanicsOnGarbage: the decoder must reject arbitrary
// byte salads with errors, never panics or out-of-range accesses.
func TestDecoderNeverPanicsOnGarbage(t *testing.T) {
	var d Decoder
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", data, r)
			}
		}()
		_ = d.Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecoderNeverPanicsOnTruncatedValidFrames: every prefix of a valid
// frame must decode or fail cleanly.
func TestDecoderNeverPanicsOnTruncatedValidFrames(t *testing.T) {
	var buf [2048]byte
	frame := BuildUDP4(buf[:], 200, testSrcMAC, testDstMAC, 1, 2, 3, 4)
	var d Decoder
	for n := 0; n <= len(frame); n++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at prefix %d: %v", n, r)
				}
			}()
			_ = d.Decode(frame[:n])
		}()
	}
}

// TestDecoderBogusLengthFields: length fields larger than the buffer
// must be clamped, never read past the end.
func TestDecoderBogusLengthFields(t *testing.T) {
	var buf [256]byte
	frame := BuildUDP4(buf[:], 100, testSrcMAC, testDstMAC, 1, 2, 3, 4)
	// Claim a giant IP total length and UDP length.
	binary.BigEndian.PutUint16(frame[EthHdrLen+2:], 0xFFFF)
	binary.BigEndian.PutUint16(frame[EthHdrLen+IPv4HdrLen+4:], 0xFFFF)
	var d Decoder
	if err := d.Decode(frame); err != nil {
		// Clean error is fine too.
		return
	}
	if len(d.Payload) > len(frame) {
		t.Errorf("payload %d longer than frame %d", len(d.Payload), len(frame))
	}
}

// TestUDP4TemplateByteIdentical is the differential contract of
// template-based frame synthesis: for every size class and a large
// random flow corpus (plus checksum-folding edge addresses), the
// rendered frame must equal a fresh BuildUDP4 byte for byte — including
// the bytes beyond the frame, which neither path may touch.
func TestUDP4TemplateByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sizes := []int{0, 41, 42, 60, 64, 65, 128, 256, 511, 1024, 1514}
	for _, size := range sizes {
		tmpl := NewUDP4Template(size, testSrcMAC, testDstMAC)
		var got, want [2048]byte
		check := func(src, dst IPv4Addr, sp, dp uint16) {
			for i := range got {
				got[i], want[i] = 0xA5, 0xA5
			}
			g := tmpl.Render(got[:], src, dst, sp, dp)
			w := BuildUDP4(want[:], size, testSrcMAC, testDstMAC, src, dst, sp, dp)
			if len(g) != len(w) {
				t.Fatalf("size %d: len %d != %d", size, len(g), len(w))
			}
			if got != want {
				t.Fatalf("size %d src %v dst %v ports %d/%d: frames differ", size, src, dst, sp, dp)
			}
			if !VerifyIPv4Checksum(g[EthHdrLen:]) {
				t.Fatalf("size %d: rendered checksum invalid", size)
			}
		}
		for i := 0; i < 500; i++ {
			check(IPv4Addr(rng.Uint32()), IPv4Addr(rng.Uint32()),
				uint16(rng.Uint32()), uint16(rng.Uint32()))
		}
		// Folding edges: zero, all-ones, and half-word patterns that push
		// the ones-complement sum to its carry boundaries.
		edges := []uint32{0, 0xffffffff, 0xffff0000, 0x0000ffff, 0x00010000, 0xfffeffff}
		for _, s := range edges {
			for _, d := range edges {
				check(IPv4Addr(s), IPv4Addr(d), 0, 0)
				check(IPv4Addr(s), IPv4Addr(d), 0xffff, 0xffff)
			}
		}
	}
}

// TestUDP6TemplateByteIdentical is the IPv6 differential contract.
func TestUDP6TemplateByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for _, size := range []int{0, 61, 62, 64, 128, 777, 1514} {
		tmpl := NewUDP6Template(size, testSrcMAC, testDstMAC)
		var got, want [2048]byte
		for i := 0; i < 300; i++ {
			src := IPv6AddrFromParts(rng.Uint64(), rng.Uint64())
			dst := IPv6AddrFromParts(rng.Uint64(), rng.Uint64())
			sp, dp := uint16(rng.Uint32()), uint16(rng.Uint32())
			for j := range got {
				got[j], want[j] = 0x5A, 0x5A
			}
			g := tmpl.Render(got[:], src, dst, sp, dp)
			w := BuildUDP6(want[:], size, testSrcMAC, testDstMAC, src, dst, sp, dp)
			if len(g) != len(w) || got != want {
				t.Fatalf("size %d iter %d: frames differ", size, i)
			}
		}
	}
}
