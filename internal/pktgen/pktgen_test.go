package pktgen

import (
	"bytes"
	"testing"

	"packetshader/internal/hw/nic"
	"packetshader/internal/lookup/ipv4"
	"packetshader/internal/lookup/ipv6"
	"packetshader/internal/packet"
	"packetshader/internal/pcap"
	"packetshader/internal/route"
	"packetshader/internal/sim"
)

func mkBuf(n int) *packet.Buf {
	pool := packet.NewBufPool(2048)
	return pool.Get(n)
}

func TestUDP4SourceDeterministic(t *testing.T) {
	s := &UDP4Source{Size: 64, Seed: 1}
	a, b := mkBuf(64), mkBuf(64)
	s.Fill(a, 2, 1, 77)
	s.Fill(b, 2, 1, 77)
	if string(a.Data) != string(b.Data) {
		t.Error("same (port,queue,seq) produced different frames")
	}
	s.Fill(b, 2, 1, 78)
	if string(a.Data) == string(b.Data) {
		t.Error("different seq produced identical frames")
	}
}

func TestUDP4SourceParsesAndVaries(t *testing.T) {
	s := &UDP4Source{Size: 64, Seed: 42}
	var d packet.Decoder
	dsts := map[packet.IPv4Addr]bool{}
	for i := 0; i < 1000; i++ {
		b := mkBuf(64)
		s.Fill(b, 0, 0, uint64(i))
		if len(b.Data) != 64 {
			t.Fatalf("frame size = %d", len(b.Data))
		}
		if err := d.Decode(b.Data); err != nil {
			t.Fatalf("frame %d does not parse: %v", i, err)
		}
		if !d.Has(packet.LayerUDP) {
			t.Fatalf("frame %d is not UDP", i)
		}
		if !packet.VerifyIPv4Checksum(b.Data[packet.EthHdrLen:]) {
			t.Fatalf("frame %d bad checksum", i)
		}
		dsts[d.IPv4.Dst] = true
	}
	if len(dsts) < 990 {
		t.Errorf("only %d distinct destinations in 1000 frames", len(dsts))
	}
}

func TestUDP4SourceHitsTable(t *testing.T) {
	entries := route.GenerateBGPTable(5000, 8, 3)
	tbl, err := ipv4.Build(entries)
	if err != nil {
		t.Fatal(err)
	}
	s := &UDP4Source{Size: 64, Seed: 9, Table: entries}
	var d packet.Decoder
	for i := 0; i < 2000; i++ {
		b := mkBuf(64)
		s.Fill(b, 1, 0, uint64(i))
		if err := d.Decode(b.Data); err != nil {
			t.Fatal(err)
		}
		if tbl.Lookup(d.IPv4.Dst) == route.NoRoute {
			t.Fatalf("generated destination %v misses the FIB", d.IPv4.Dst)
		}
	}
}

func TestUDP6SourceHitsTable(t *testing.T) {
	entries := route.GenerateIPv6Table(2000, 8, 4)
	tbl := ipv6.Build(entries)
	s := &UDP6Source{Size: 78, Seed: 10, Table: entries}
	var d packet.Decoder
	for i := 0; i < 1000; i++ {
		b := mkBuf(78)
		s.Fill(b, 0, 1, uint64(i))
		if err := d.Decode(b.Data); err != nil {
			t.Fatal(err)
		}
		if !d.Has(packet.LayerIPv6) {
			t.Fatal("not IPv6")
		}
		if tbl.Lookup(d.IPv6.Dst.Hi(), d.IPv6.Dst.Lo()) == route.NoRoute {
			t.Fatalf("generated IPv6 destination misses the FIB")
		}
	}
}

func TestUDP4SourceStamping(t *testing.T) {
	s := &UDP4Source{Size: 64, Seed: 5, Stamp: true}
	b := mkBuf(64)
	b.GenAt = sim.Time(123 * sim.Microsecond)
	s.Fill(b, 0, 0, 0)
	ts, ok := packet.Timestamp(b.Data)
	if !ok || ts != int64(b.GenAt) {
		t.Errorf("timestamp = %d,%v want %d", ts, ok, int64(b.GenAt))
	}
}

func TestLatencySinkStats(t *testing.T) {
	l := NewLatencySink()
	pool := packet.NewBufPool(128)
	for i := 1; i <= 10; i++ {
		b := pool.Get(64)
		b.GenAt = sim.Time(1) // 1 ps: nonzero (zero means unstamped)
		l.Observe(b, sim.Time(i)*sim.Time(10*sim.Microsecond))
	}
	if l.Count != 10 {
		t.Fatalf("count = %d", l.Count)
	}
	if m := l.MeanMicros(); m < 54 || m > 56 {
		t.Errorf("mean = %v µs, want 55", m)
	}
	if m := l.MinMicros(); m < 9.9 || m > 10.1 {
		t.Errorf("min = %v, want ≈10", m)
	}
	if m := l.MaxMicros(); m < 99.9 || m > 100.1 {
		t.Errorf("max = %v, want ≈100", m)
	}
	if p := l.PercentileMicros(0.5); p < 40 || p > 60 {
		t.Errorf("p50 = %v", p)
	}
	if p := l.PercentileMicros(0.99); p < 90 || p > 110 {
		t.Errorf("p99 = %v", p)
	}
}

// TestLatencySinkPercentileRank: a quantile is the bucket of the
// ceil(q·Count)-th sample, never an empty bucket below the first one.
func TestLatencySinkPercentileRank(t *testing.T) {
	l := NewLatencySink()
	b := packet.NewBufPool(128).Get(64)
	b.GenAt = 1
	l.Observe(b, 1+sim.Time(300*sim.Microsecond))
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if p := l.PercentileMicros(q); p != 310 {
			t.Errorf("one 300 µs sample: p%g = %v µs, want 310 (the bucket holding it)", q*100, p)
		}
	}
	l.Observe(b, 1+sim.Time(20*sim.Microsecond))
	if p := l.PercentileMicros(0.5); p != 30 {
		t.Errorf("samples 20 and 300 µs: p50 = %v µs, want 30 (the first sample's bucket)", p)
	}
	if p := l.PercentileMicros(0.51); p != 310 {
		t.Errorf("samples 20 and 300 µs: p51 = %v µs, want 310 (the second sample's bucket)", p)
	}
}

func TestLatencySinkIgnoresUnstamped(t *testing.T) {
	l := NewLatencySink()
	pool := packet.NewBufPool(128)
	b := pool.Get(64) // GenAt zero
	l.Observe(b, sim.Time(100))
	if l.Count != 0 {
		t.Error("unstamped packet counted")
	}
}

func TestSplitmixSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		seen[sim.SplitMix64(i)] = true
	}
	if len(seen) != 10000 {
		t.Errorf("splitmix64 collisions: %d unique of 10000", len(seen))
	}
}

func TestReplaySourceRoundTrip(t *testing.T) {
	// Build a small capture, then replay it as a workload.
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, 0)
	var want [][]byte
	for i := 0; i < 5; i++ {
		b := mkBuf(64 + i*10)
		(&UDP4Source{Size: 64 + i*10, Seed: 3}).Fill(b, 0, 0, uint64(i))
		cp := make([]byte, len(b.Data))
		copy(cp, b.Data)
		want = append(want, cp)
		if err := w.WritePacket(sim.Time(i)*sim.Time(sim.Microsecond), b.Data); err != nil {
			t.Fatal(err)
		}
	}
	src, err := NewReplaySourceFromBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 5 {
		t.Fatalf("len = %d", src.Len())
	}
	// seq 0..4 on port 0 queue 0 replays in order; seq 5 wraps.
	for i := 0; i < 6; i++ {
		b := mkBuf(2048)
		src.Fill(b, 0, 0, uint64(i))
		if string(b.Data) != string(want[i%5]) {
			t.Fatalf("frame %d differs from trace", i)
		}
	}
}

func TestReplaySourceEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	pcap.NewWriter(&buf, 0) // header never written without packets
	if _, err := NewReplaySourceFromBytes(buf.Bytes()); err == nil {
		t.Error("empty capture accepted")
	}
}

func TestReplaySourceFramesParse(t *testing.T) {
	// Frames written by the generator and replayed must still decode.
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, 0)
	gen := &UDP4Source{Size: 100, Seed: 8}
	for i := 0; i < 20; i++ {
		b := mkBuf(100)
		gen.Fill(b, 1, 2, uint64(i))
		w.WritePacket(0, b.Data)
	}
	src, err := NewReplaySourceFromBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var d packet.Decoder
	for i := 0; i < 40; i++ {
		b := mkBuf(2048)
		src.Fill(b, 3, 1, uint64(i))
		if err := d.Decode(b.Data); err != nil {
			t.Fatalf("replayed frame %d does not parse: %v", i, err)
		}
	}
}

// TestSourcesMatchDirectBuild is the generator-level differential
// contract: the templated Fill path must emit exactly the bytes the
// direct BuildUDP4/BuildUDP6 construction emits for the same
// (port, queue, seq), across sizes, table/tableless flows, and both
// source kinds.
func TestSourcesMatchDirectBuild(t *testing.T) {
	entries4 := route.GenerateBGPTable(500, 8, 3)
	entries6 := route.GenerateIPv6Table(300, 8, 4)
	buf := make([]byte, 2048)
	for _, size := range []int{0, 60, 64, 65, 100, 1514} {
		for _, tbl := range []bool{false, true} {
			s4 := &UDP4Source{Size: size, Seed: 7}
			s6 := &UDP6Source{Size: size, Seed: 7}
			if tbl {
				s4.Table = entries4
				s6.Table = entries6
			}
			for i := 0; i < 200; i++ {
				port, queue, seq := i%4, i%2, uint64(i)
				b := mkBuf(2048)
				s4.Fill(b, port, queue, seq)
				r := sim.SplitMix64(s4.Seed ^ uint64(port)<<48 ^ uint64(queue)<<40 ^ seq)
				r2 := sim.SplitMix64(r)
				var dst packet.IPv4Addr
				if tbl {
					e := s4.Table[int(r%uint64(len(s4.Table)))]
					dst = packet.IPv4Addr(uint32(e.Prefix.Addr) | uint32(r2)&^e.Prefix.Mask())
				} else {
					dst = packet.IPv4Addr(uint32(r))
				}
				want := packet.BuildUDP4(buf, size, genSrcMAC, genDstMAC,
					packet.IPv4Addr(uint32(r2>>32)), dst, uint16(r2>>16), uint16(r2))
				if !bytes.Equal(b.Data, want) {
					t.Fatalf("UDP4 size %d tbl %v seq %d: templated frame differs from BuildUDP4", size, tbl, seq)
				}

				b6 := mkBuf(2048)
				s6.Fill(b6, port, queue, seq)
				r3 := sim.SplitMix64(r2)
				var dst6 packet.IPv6Addr
				if tbl {
					e := s6.Table[int(r%uint64(len(s6.Table)))]
					mh, ml := route.Mask6(e.Prefix6.Len)
					dst6 = packet.IPv6AddrFromParts(e.Prefix6.Hi|(r2&^mh), e.Prefix6.Lo|(r3&^ml))
				} else {
					dst6 = packet.IPv6AddrFromParts(r2, r3)
				}
				want6 := packet.BuildUDP6(buf, size, genSrcMAC, genDstMAC,
					packet.IPv6AddrFromParts(0x2001_0db8_0000_0000|r>>32, r), dst6,
					uint16(r3>>16), uint16(r3))
				if !bytes.Equal(b6.Data, want6) {
					t.Fatalf("UDP6 size %d tbl %v seq %d: templated frame differs from BuildUDP6", size, tbl, seq)
				}
			}
		}
	}
}

// TestFillBatchMatchesFill is the batching contract: FillBatch leaves
// every Buf exactly as n per-packet Fill calls would — frame bytes, RSS
// hash and embedded timestamp — across block boundaries (fillBlock is
// 64) and from a starting seq that is not zero. The edge tables hold a
// /0 (every bit random) and a host route (none), and a one-entry table
// picks index 0 for every packet.
func TestFillBatchMatchesFill(t *testing.T) {
	entries4 := route.GenerateBGPTable(5000, 8, 3)
	entries6 := route.GenerateIPv6Table(2000, 8, 4)
	edges4 := []route.Entry{
		{Prefix: route.Prefix{Len: 0}, NextHop: 1},
		{Prefix: route.Prefix{Addr: 0x0a000001, Len: 32}, NextHop: 2},
	}
	edges6 := []route.Entry6{
		{Prefix6: route.Prefix6{Len: 0}, NextHop: 1},
		{Prefix6: route.Prefix6{Hi: 0x2001_0db8_0000_0001, Lo: 1, Len: 128}, NextHop: 2},
	}
	one4 := []route.Entry{{Prefix: route.Prefix{Addr: 0xc0a80100, Len: 24}}}
	one6 := []route.Entry6{{Prefix6: route.Prefix6{Hi: 0x2001_0db8_0000_0002, Len: 64}}}
	const seq0 = 1<<33 + 12345
	for _, seed := range []uint64{1, 2, 3} {
		sources := map[string]nic.BatchSource{
			"udp4":       &UDP4Source{Size: 64, Seed: seed, Stamp: true},
			"udp4-table": &UDP4Source{Size: 64, Seed: seed, Stamp: true, Table: entries4},
			"udp4-1514":  &UDP4Source{Size: 1514, Seed: seed, Table: entries4},
			"udp4-edges": &UDP4Source{Size: 64, Seed: seed, Table: edges4},
			"udp4-one":   &UDP4Source{Size: 64, Seed: seed, Table: one4},
			"udp6":       &UDP6Source{Size: 78, Seed: seed},
			"udp6-table": &UDP6Source{Size: 78, Seed: seed, Table: entries6},
			"udp6-edges": &UDP6Source{Size: 78, Seed: seed, Table: edges6},
			"udp6-one":   &UDP6Source{Size: 78, Seed: seed, Table: one6},
		}
		for name, src := range sources {
			for _, n := range []int{1, 63, 64, 65, 256} {
				pool := packet.NewBufPool(2048)
				one, batch := make([]*packet.Buf, n), make([]*packet.Buf, n)
				for i := range one {
					one[i], batch[i] = pool.Get(64), pool.Get(64)
					one[i].GenAt = sim.Time(i+1) * sim.Time(sim.Microsecond)
					batch[i].GenAt = one[i].GenAt
					src.Fill(one[i], 3, 2, seq0+uint64(i))
				}
				src.FillBatch(batch, 3, 2, seq0)
				for i := range one {
					ts1, ok1 := packet.Timestamp(one[i].Data)
					ts2, ok2 := packet.Timestamp(batch[i].Data)
					if !bytes.Equal(one[i].Data, batch[i].Data) || ts1 != ts2 || ok1 != ok2 {
						t.Fatalf("%s seed %d n %d: packet %d differs between Fill and FillBatch", name, seed, n, i)
					}
				}
			}
		}
	}
}

// fillOnly hides a source's FillBatch, the way a decorator written
// against nic.FrameSource alone (bench's tracedSource) does.
type fillOnly struct{ inner nic.FrameSource }

func (s fillOnly) Fill(b *packet.Buf, port, queue int, seq uint64) {
	s.inner.Fill(b, port, queue, seq)
}

// fetchAll runs one RX queue at 64 B line rate from src for 200 µs and
// returns every frame it materialized, in order, with its metadata.
func fetchAll(t *testing.T, pktSize int, src nic.FrameSource) []packet.Buf {
	t.Helper()
	env := sim.NewEnv()
	defer env.Close()
	q := nic.NewRxQueue(env, 1, 2, 4096, packet.NewBufPool(2048), nil)
	q.SetOffered(14.88e6, pktSize, src)
	var got []packet.Buf
	env.Go("reader", func(p *sim.Proc) {
		var out []*packet.Buf
		for i := 0; i < 20; i++ {
			p.Sleep(10 * sim.Microsecond)
			out = q.Fetch(p, 100, out[:0])
			for _, b := range out {
				cp := *b
				cp.Data = bytes.Clone(b.Data)
				got = append(got, cp)
				b.Release()
			}
		}
	})
	env.Run(0)
	if len(got) < 2000 {
		t.Fatalf("fetched only %d packets", len(got))
	}
	return got
}

// TestFetchPerPacketFallbackMatchesBatch: a decorator that implements
// only FrameSource goes through the per-packet loop and must yield the
// frames the batched path yields.
func TestFetchPerPacketFallbackMatchesBatch(t *testing.T) {
	entries := route.GenerateBGPTable(5000, 8, 3)
	mk := func() *UDP4Source { return &UDP4Source{Size: 64, Seed: 1, Table: entries, Stamp: true} }
	batched := fetchAll(t, 64, mk())
	perPkt := fetchAll(t, 64, fillOnly{mk()})
	if len(batched) != len(perPkt) {
		t.Fatalf("batched %d packets, per-packet %d", len(batched), len(perPkt))
	}
	for i := range batched {
		a, b := &batched[i], &perPkt[i]
		if !bytes.Equal(a.Data, b.Data) || a.GenAt != b.GenAt ||
			a.Port != b.Port || a.Queue != b.Queue {
			t.Fatalf("packet %d differs between the batched and the per-packet path", i)
		}
	}
}

// TestReplayFrameLargerThanOfferedSize: the offered packet size sizes
// the cell a fetch hands the source; a replayed frame that is larger
// must still arrive whole.
func TestReplayFrameLargerThanOfferedSize(t *testing.T) {
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, 0)
	want := mkBuf(3000) // larger than any regular cell, too
	(&UDP4Source{Size: 3000, Seed: 3}).Fill(want, 0, 0, 0)
	if err := w.WritePacket(0, want.Data); err != nil {
		t.Fatal(err)
	}
	src, err := NewReplaySourceFromBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range fetchAll(t, 64, src) {
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("replayed frame %d is %d bytes, want the trace's %d whole", i, len(got.Data), len(want.Data))
		}
	}
}
