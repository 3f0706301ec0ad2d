package ipv4

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"packetshader/internal/packet"
	"packetshader/internal/route"
)

func mustBuild(t *testing.T, entries []route.Entry) *Table {
	t.Helper()
	tbl, err := Build(entries)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestEmptyTableMisses(t *testing.T) {
	tbl := mustBuild(t, nil)
	if got := tbl.Lookup(packet.IPv4Addr(0x01020304)); got != route.NoRoute {
		t.Errorf("empty table returned %d", got)
	}
}

func TestSinglePrefix(t *testing.T) {
	tbl := mustBuild(t, []route.Entry{
		{Prefix: route.Prefix{Addr: 0x0A000000, Len: 8}, NextHop: 3},
	})
	if got := tbl.Lookup(0x0A123456); got != 3 {
		t.Errorf("lookup inside /8 = %d, want 3", got)
	}
	if got := tbl.Lookup(0x0B000000); got != route.NoRoute {
		t.Errorf("lookup outside /8 = %d, want miss", got)
	}
}

func TestLongestPrefixWins(t *testing.T) {
	tbl := mustBuild(t, []route.Entry{
		{Prefix: route.Prefix{Addr: 0x0A000000, Len: 8}, NextHop: 1},
		{Prefix: route.Prefix{Addr: 0x0A010000, Len: 16}, NextHop: 2},
		{Prefix: route.Prefix{Addr: 0x0A010100, Len: 24}, NextHop: 3},
		{Prefix: route.Prefix{Addr: 0x0A010180, Len: 25}, NextHop: 4},
	})
	cases := []struct {
		addr packet.IPv4Addr
		want uint16
	}{
		{0x0A0101FF, 4}, // /25 (upper half)
		{0x0A010101, 3}, // /24 (lower half)
		{0x0A010201, 2}, // /16
		{0x0A020000, 1}, // /8
		{0x0B000000, route.NoRoute},
	}
	for _, c := range cases {
		if got := tbl.Lookup(c.addr); got != c.want {
			t.Errorf("Lookup(%v) = %d, want %d", c.addr, got, c.want)
		}
	}
}

func TestInsertionOrderIrrelevant(t *testing.T) {
	entries := []route.Entry{
		{Prefix: route.Prefix{Addr: 0x0A010180, Len: 25}, NextHop: 4},
		{Prefix: route.Prefix{Addr: 0x0A000000, Len: 8}, NextHop: 1},
		{Prefix: route.Prefix{Addr: 0x0A010100, Len: 24}, NextHop: 3},
	}
	a := mustBuild(t, entries)
	rev := []route.Entry{entries[2], entries[1], entries[0]}
	b := mustBuild(t, rev)
	for _, addr := range []packet.IPv4Addr{0x0A0101C0, 0x0A010101, 0x0A330000} {
		if a.Lookup(addr) != b.Lookup(addr) {
			t.Errorf("order-dependent result at %v", addr)
		}
	}
}

func TestAccessCounts(t *testing.T) {
	tbl := mustBuild(t, []route.Entry{
		{Prefix: route.Prefix{Addr: 0x0A010100, Len: 24}, NextHop: 1},
		{Prefix: route.Prefix{Addr: 0xC0A80080, Len: 26}, NextHop: 2},
	})
	if _, n := tbl.LookupCounted(0x0A010105); n != 1 {
		t.Errorf("/24 hit took %d accesses, want 1", n)
	}
	if _, n := tbl.LookupCounted(0xC0A80081); n != 2 {
		t.Errorf(">24 hit took %d accesses, want 2", n)
	}
	// An address in the same /24 block as a long prefix also pays 2.
	if hop, n := tbl.LookupCounted(0xC0A80001); n != 2 || hop != route.NoRoute {
		t.Errorf("block-sharing miss = %d hop %d, want 2 accesses, miss", n, hop)
	}
	if _, n := tbl.LookupCounted(0x7F000001); n != 1 {
		t.Errorf("clean miss took %d accesses, want 1", n)
	}
}

func TestLongPrefixSeedsFromShorter(t *testing.T) {
	// A /26 inside a /16: the rest of its /24 block must still resolve
	// to the /16's hop.
	tbl := mustBuild(t, []route.Entry{
		{Prefix: route.Prefix{Addr: 0xC0A80000, Len: 16}, NextHop: 7},
		{Prefix: route.Prefix{Addr: 0xC0A80140, Len: 26}, NextHop: 9},
	})
	if got := tbl.Lookup(0xC0A80150); got != 9 {
		t.Errorf("inside /26 = %d, want 9", got)
	}
	if got := tbl.Lookup(0xC0A80101); got != 7 {
		t.Errorf("same /24, outside /26 = %d, want 7 (seeded from /16)", got)
	}
	if got := tbl.Lookup(0xC0A8FF01); got != 7 {
		t.Errorf("elsewhere in /16 = %d, want 7", got)
	}
}

func TestSlash32(t *testing.T) {
	tbl := mustBuild(t, []route.Entry{
		{Prefix: route.Prefix{Addr: 0x08080808, Len: 32}, NextHop: 5},
	})
	if got := tbl.Lookup(0x08080808); got != 5 {
		t.Errorf("/32 exact = %d, want 5", got)
	}
	if got := tbl.Lookup(0x08080809); got != route.NoRoute {
		t.Errorf("/32 neighbour = %d, want miss", got)
	}
}

func TestDefaultRoute(t *testing.T) {
	tbl := mustBuild(t, []route.Entry{
		{Prefix: route.Prefix{Addr: 0, Len: 0}, NextHop: 1},
		{Prefix: route.Prefix{Addr: 0x0A000000, Len: 8}, NextHop: 2},
	})
	if got := tbl.Lookup(0xDEADBEEF); got != 1 {
		t.Errorf("default route = %d, want 1", got)
	}
	if got := tbl.Lookup(0x0A000001); got != 2 {
		t.Errorf("/8 over default = %d, want 2", got)
	}
}

func TestNextHopRangeError(t *testing.T) {
	_, err := Build([]route.Entry{
		{Prefix: route.Prefix{Addr: 0, Len: 8}, NextHop: MaxNextHop + 1},
	})
	if err != ErrNextHopRange {
		t.Errorf("err = %v, want ErrNextHopRange", err)
	}
}

func TestSegmentsCount(t *testing.T) {
	tbl := mustBuild(t, []route.Entry{
		{Prefix: route.Prefix{Addr: 0x01010180, Len: 25}, NextHop: 1},
		{Prefix: route.Prefix{Addr: 0x010101C0, Len: 26}, NextHop: 2}, // same block
		{Prefix: route.Prefix{Addr: 0x02020280, Len: 25}, NextHop: 3}, // new block
	})
	if tbl.Segments() != 2 {
		t.Errorf("segments = %d, want 2", tbl.Segments())
	}
}

func TestMemBytes(t *testing.T) {
	tbl := mustBuild(t, nil)
	if tbl.MemBytes() != 32*1024*1024 {
		t.Errorf("base table = %d bytes, want 32MB", tbl.MemBytes())
	}
}

// TestAgainstLinearOracle is the main correctness property: DIR-24-8
// must agree with the reference linear LPM on a realistic BGP table for
// random addresses.
func TestAgainstLinearOracle(t *testing.T) {
	entries := route.GenerateBGPTable(5000, 64, 11)
	tbl := mustBuild(t, entries)
	oracle := route.NewLinearLPM(entries)
	f := func(addr uint32) bool {
		return tbl.Lookup(packet.IPv4Addr(addr)) == oracle.Lookup(packet.IPv4Addr(addr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Also probe addresses *inside* known prefixes (random addresses
	// mostly miss).
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		e := entries[rng.Intn(len(entries))]
		addr := packet.IPv4Addr(uint32(e.Prefix.Addr) | (rng.Uint32() &^ e.Prefix.Mask()))
		if got, want := tbl.Lookup(addr), oracle.Lookup(addr); got != want {
			t.Fatalf("Lookup(%v) = %d, oracle %d", addr, got, want)
		}
	}
}

func TestLookupBatchMatchesScalar(t *testing.T) {
	entries := route.GenerateBGPTable(2000, 16, 3)
	tbl := mustBuild(t, entries)
	rng := rand.New(rand.NewSource(9))
	addrs := make([]packet.IPv4Addr, 512)
	for i := range addrs {
		addrs[i] = packet.IPv4Addr(rng.Uint32())
	}
	hops := make([]uint16, len(addrs))
	tbl.LookupBatch(addrs, hops)
	for i, a := range addrs {
		if hops[i] != tbl.Lookup(a) {
			t.Fatalf("batch[%d] = %d, scalar %d", i, hops[i], tbl.Lookup(a))
		}
	}
}

func TestFullBGPScaleBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale table build")
	}
	entries := route.GenerateBGPTable(route.BGPTableSize, 8, 1)
	tbl := mustBuild(t, entries)
	// §6.2.1: only ~3% of prefixes are longer than /24, so TBLlong
	// segments should be a small fraction of the table.
	if tbl.Segments() > len(entries)/10 {
		t.Errorf("segments = %d, unexpectedly many", tbl.Segments())
	}
	oracle := route.NewLinearLPM(entries[:1000])
	sub, err := Build(entries[:1000])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		addr := packet.IPv4Addr(rng.Uint32())
		if got, want := sub.Lookup(addr), oracle.Lookup(addr); got != want {
			t.Fatalf("subset table disagrees at %v: %d vs %d", addr, got, want)
		}
	}
}

// buildReference is Build as it was before slice fills: the same
// counting sort, then one checked write per cell, with the arm for a
// short prefix meeting an already expanded block, and a new segment
// seeded by 256 appends. It is the oracle for Build.
func buildReference(entries []route.Entry) (*Table, error) {
	var byLen [33]int
	for _, e := range entries {
		byLen[e.Prefix.Len]++
	}
	offs := 0
	for l := range byLen {
		offs, byLen[l] = offs+byLen[l], offs
	}
	sorted := make([]route.Entry, len(entries))
	for _, e := range entries {
		sorted[byLen[e.Prefix.Len]] = e
		byLen[e.Prefix.Len]++
	}
	t := &Table{tbl24: make([]uint16, tbl24Size)}
	nLong := 0
	for _, e := range sorted {
		if e.NextHop > MaxNextHop {
			return nil, ErrNextHopRange
		}
		if e.Prefix.Len <= 24 {
			base := uint32(e.Prefix.Addr) >> 8
			for i := uint32(0); i < 1<<(24-e.Prefix.Len); i++ {
				cur := t.tbl24[base+i]
				if cur&longFlag != 0 {
					seg := int(cur&^uint16(longFlag)) << 8
					for j := 0; j < 256; j++ {
						if t.tblLong[seg+j] == missEntry {
							t.tblLong[seg+j] = e.NextHop + 1
						}
					}
					continue
				}
				t.tbl24[base+i] = e.NextHop + 1
			}
			continue
		}
		block := uint32(e.Prefix.Addr) >> 8
		cur := t.tbl24[block]
		var seg int
		if cur&longFlag != 0 {
			seg = int(cur&^uint16(longFlag)) << 8
		} else {
			if nLong >= 1<<15 {
				return nil, ErrTooManySegments
			}
			seg = nLong << 8
			nLong++
			for j := 0; j < 256; j++ {
				t.tblLong = append(t.tblLong, cur)
			}
			t.tbl24[block] = uint16(seg>>8) | longFlag
		}
		low := uint32(e.Prefix.Addr) & 0xff
		for j := uint32(0); j < 1<<(32-e.Prefix.Len); j++ {
			t.tblLong[seg+int(low+j)] = e.NextHop + 1
		}
	}
	return t, nil
}

// randomRouteSet draws n valid routes whose prefixes cluster in a few
// /16s so they nest, with /0, /8, /24, /25 and /32 always present, some
// prefixes repeated with another hop, and every long prefix listed
// before every short one.
func randomRouteSet(rng *rand.Rand, n int) []route.Entry {
	lens := []uint8{0, 8, 12, 16, 20, 23, 24, 24, 24, 25, 26, 28, 30, 31, 32}
	var long, short []route.Entry
	for i := 0; i < n; i++ {
		l := lens[i%len(lens)]
		if i >= len(lens) {
			l = lens[rng.Intn(len(lens))]
		}
		p := route.Prefix{Len: l}
		p.Addr = packet.IPv4Addr((0x0a000000 | uint32(rng.Intn(4))<<16 | rng.Uint32()&0xffff) & p.Mask())
		e := route.Entry{Prefix: p, NextHop: uint16(rng.Intn(64))}
		if l > 24 {
			long = append(long, e)
		} else {
			short = append(short, e)
		}
		if rng.Intn(8) == 0 { // the same prefix again, another hop
			e.NextHop = uint16(rng.Intn(64))
			if l > 24 {
				long = append(long, e)
			} else {
				short = append(short, e)
			}
		}
	}
	return append(long, short...)
}

// TestBuildMatchesReference pins Build to the per-cell oracle cell for
// cell: TBL24, TBLlong and the segment count.
func TestBuildMatchesReference(t *testing.T) {
	same := func(name string, entries []route.Entry) {
		t.Helper()
		got, err := Build(entries)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := buildReference(entries)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !slices.Equal(got.tbl24, want.tbl24) || !slices.Equal(got.tblLong, want.tblLong) ||
			got.Segments() != want.Segments() {
			t.Fatalf("%s: Build differs from the per-cell reference (segments %d vs %d)",
				name, got.Segments(), want.Segments())
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i, n := range []int{1, 15, 40, 200, 1000} {
		same(fmt.Sprintf("random set %d (n=%d)", i, n), randomRouteSet(rng, n))
	}
	for _, seed := range []int64{1, 2, 2009} {
		same(fmt.Sprintf("full table, seed %d", seed), route.GenerateBGPTable(route.BGPTableSize, 64, seed))
	}
}

// TestBuildRejectsBadPrefix: a prefix with host bits set or longer than
// /32 is an error, not an index out of range.
func TestBuildRejectsBadPrefix(t *testing.T) {
	for _, p := range []route.Prefix{
		{Addr: 0xfffffe00, Len: 8}, // 255.255.254.0/8
		{Addr: 0x0a000000, Len: 40},
		{Addr: 0x0a000001, Len: 24},
	} {
		if _, err := Build([]route.Entry{{Prefix: route.Prefix{Addr: 0x0a000000, Len: 8}}, {Prefix: p}}); err != ErrBadPrefix {
			t.Errorf("Build with %v: err = %v, want ErrBadPrefix", p, err)
		}
		if _, err := NewDynamic([]route.Entry{{Prefix: p}}); err != ErrBadPrefix {
			t.Errorf("NewDynamic with %v: err = %v, want ErrBadPrefix", p, err)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	entries := route.GenerateBGPTable(route.BGPTableSize, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(entries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupHostCPU(b *testing.B) {
	entries := route.GenerateBGPTable(100000, 64, 1)
	tbl, err := Build(entries)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	addrs := make([]packet.IPv4Addr, 4096)
	for i := range addrs {
		addrs[i] = packet.IPv4Addr(rng.Uint32())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tbl.Lookup(addrs[i&4095])
	}
}
