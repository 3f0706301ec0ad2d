package route

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"packetshader/internal/packet"
)

func TestPrefixMask(t *testing.T) {
	cases := []struct {
		len  uint8
		mask uint32
	}{
		{0, 0x00000000},
		{8, 0xff000000},
		{24, 0xffffff00},
		{32, 0xffffffff},
		{13, 0xfff80000},
	}
	for _, c := range cases {
		if got := (Prefix{Len: c.len}).Mask(); got != c.mask {
			t.Errorf("Mask(%d) = %#08x, want %#08x", c.len, got, c.mask)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := Prefix{Addr: packet.IPv4Addr(0xC0A80000), Len: 16} // 192.168/16
	if !p.Contains(packet.IPv4Addr(0xC0A80101)) {
		t.Error("192.168.1.1 not in 192.168/16")
	}
	if p.Contains(packet.IPv4Addr(0xC0A90101)) {
		t.Error("192.169.1.1 in 192.168/16")
	}
	all := Prefix{Len: 0}
	if !all.Contains(packet.IPv4Addr(0x12345678)) {
		t.Error("default route does not contain arbitrary address")
	}
}

func TestPrefixValid(t *testing.T) {
	cases := []struct {
		p    Prefix
		want bool
	}{
		{Prefix{Addr: 0, Len: 0}, true},
		{Prefix{Addr: 0x0a000000, Len: 8}, true},
		{Prefix{Addr: 0xffffffff, Len: 32}, true},
		{Prefix{Addr: 0xfffffe00, Len: 8}, false},  // host bits
		{Prefix{Addr: 0x00000001, Len: 0}, false},  // host bits under /0
		{Prefix{Addr: 0x0a000080, Len: 24}, false}, // host bits
		{Prefix{Addr: 0x0a000000, Len: 33}, false},
		{Prefix{Addr: 0, Len: 40}, false},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.want {
			t.Errorf("%v.Valid() = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMask6(t *testing.T) {
	cases := []struct {
		len    uint8
		hi, lo uint64
	}{
		{0, 0, 0},
		{64, ^uint64(0), 0},
		{128, ^uint64(0), ^uint64(0)},
		{48, 0xffffffffffff0000, 0},
		{96, ^uint64(0), 0xffffffff00000000},
	}
	for _, c := range cases {
		hi, lo := Mask6(c.len)
		if hi != c.hi || lo != c.lo {
			t.Errorf("Mask6(%d) = %#x,%#x want %#x,%#x", c.len, hi, lo, c.hi, c.lo)
		}
	}
}

func TestPrefix6Contains(t *testing.T) {
	p := Prefix6{Hi: 0x20010db800000000, Len: 32}
	if !p.Contains(0x20010db812345678, 0xdeadbeef) {
		t.Error("address not in 2001:db8::/32")
	}
	if p.Contains(0x20010db900000000, 0) {
		t.Error("2001:db9:: in 2001:db8::/32")
	}
}

func TestGenerateBGPTableProperties(t *testing.T) {
	const n = 20000
	entries := GenerateBGPTable(n, 8, 42)
	if len(entries) != n {
		t.Fatalf("len = %d, want %d", len(entries), n)
	}
	// Uniqueness.
	seen := make(map[Prefix]bool, n)
	for _, e := range entries {
		if seen[e.Prefix] {
			t.Fatalf("duplicate prefix %v", e.Prefix)
		}
		seen[e.Prefix] = true
		// Host bits must be zero.
		if uint32(e.Prefix.Addr)&^e.Prefix.Mask() != 0 {
			t.Fatalf("prefix %v has host bits set", e.Prefix)
		}
		if e.NextHop >= 8 {
			t.Fatalf("next hop %d out of range", e.NextHop)
		}
	}
	// ~3% of prefixes longer than /24 (§6.2.1).
	frac := FractionLongerThan(entries, 24)
	if frac < 0.02 || frac > 0.045 {
		t.Errorf("fraction >/24 = %.3f, want ≈0.03", frac)
	}
	// /24 should dominate, as in real BGP tables.
	c24 := 0
	for _, e := range entries {
		if e.Prefix.Len == 24 {
			c24++
		}
	}
	if f := float64(c24) / n; f < 0.40 || f < frac {
		t.Errorf("/24 fraction = %.3f, want ≈0.46", f)
	}
}

func TestGenerateBGPTableDeterministic(t *testing.T) {
	a := GenerateBGPTable(1000, 8, 7)
	b := GenerateBGPTable(1000, 8, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs between runs with same seed", i)
		}
	}
	c := GenerateBGPTable(1000, 8, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical tables")
	}
}

// generateBGPTableMap is GenerateBGPTable as it was before prefixSet:
// the same draws, deduplicated through a map. It is the oracle for the
// set.
func generateBGPTableMap(n, numNextHops int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	var cum []float64
	total := 0.0
	for _, d := range lengthDistribution {
		total += d.weight
		cum = append(cum, total)
	}
	seen := make(map[Prefix]bool, n)
	entries := make([]Entry, 0, n)
	for len(entries) < n {
		r := rng.Float64() * total
		idx := sort.SearchFloat64s(cum, r)
		if idx >= len(lengthDistribution) {
			idx = len(lengthDistribution) - 1
		}
		l := lengthDistribution[idx].len
		addr := packet.IPv4Addr(rng.Uint32() & (Prefix{Len: l}).Mask())
		if b := uint32(addr) >> 24; b == 0 || b == 10 || b == 127 || b >= 224 {
			continue
		}
		p := Prefix{Addr: addr, Len: l}
		if seen[p] {
			continue
		}
		seen[p] = true
		entries = append(entries, Entry{Prefix: p, NextHop: uint16(rng.Intn(numNextHops))})
	}
	return entries
}

func TestGenerateBGPTableMatchesMapDedupe(t *testing.T) {
	for _, seed := range []int64{1, 2, 77, 2009} {
		for _, n := range []int{0, 1, 1000, 10000, BGPTableSize} {
			if !slices.Equal(GenerateBGPTable(n, 64, seed), generateBGPTableMap(n, 64, seed)) {
				t.Errorf("seed %d, n %d: set-deduplicated table differs from the map oracle", seed, n)
			}
		}
	}
}

// TestPrefixSetBitsDistinct adds every prefix of /0–/16 and, for /17–/24,
// the prefixes whose bits sit next to a page edge, to one set: each must
// be new once and a duplicate afterwards, so no two share a bit.
func TestPrefixSetBitsDistinct(t *testing.T) {
	var ps []Prefix
	for l := uint8(0); l <= 16; l++ {
		for a := uint32(0); a < 1<<l; a++ {
			ps = append(ps, Prefix{Addr: packet.IPv4Addr(uint64(a) << (32 - l)), Len: l})
		}
	}
	for l := uint8(17); l <= 24; l++ {
		for edge := uint32(1) << l; edge <= 2<<l; edge += 1 << setPageBits {
			for _, bit := range []uint32{edge - 2, edge - 1, edge, edge + 1} {
				if a := bit - 1<<l; bit >= 1<<l && a < 1<<l {
					ps = append(ps, Prefix{Addr: packet.IPv4Addr(a << (32 - l)), Len: l})
				}
			}
		}
	}
	ps = append(ps, Prefix{Addr: 0x0a000080, Len: 25}, Prefix{Addr: 0x0a000080, Len: 32})
	var s prefixSet
	for _, p := range ps {
		if !s.add(p) {
			t.Fatalf("%v reported as a duplicate on first add", p)
		}
	}
	for _, p := range ps {
		if s.add(p) {
			t.Fatalf("%v reported as new on second add", p)
		}
	}
}

func BenchmarkGenerateBGPTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		GenerateBGPTable(BGPTableSize, 64, 1)
	}
}

func TestGenerateIPv6TableProperties(t *testing.T) {
	const n = 5000
	entries := GenerateIPv6Table(n, 8, 99)
	if len(entries) != n {
		t.Fatalf("len = %d", len(entries))
	}
	for _, e := range entries {
		mh, ml := Mask6(e.Prefix6.Len)
		if e.Prefix6.Hi&^mh != 0 || e.Prefix6.Lo&^ml != 0 {
			t.Fatalf("prefix %+v has host bits set", e.Prefix6)
		}
		// Global unicast 2000::/3.
		if e.Prefix6.Hi>>61 != 1 {
			t.Fatalf("prefix %+v outside 2000::/3", e.Prefix6)
		}
	}
}

func TestLinearLPMLongestWins(t *testing.T) {
	entries := []Entry{
		{Prefix{packet.IPv4Addr(0x0A000000), 8}, 1},  // 10/8
		{Prefix{packet.IPv4Addr(0x0A010000), 16}, 2}, // 10.1/16
		{Prefix{packet.IPv4Addr(0x0A010100), 24}, 3}, // 10.1.1/24
	}
	l := NewLinearLPM(entries)
	cases := []struct {
		addr packet.IPv4Addr
		want uint16
	}{
		{packet.IPv4Addr(0x0A010101), 3},
		{packet.IPv4Addr(0x0A010201), 2},
		{packet.IPv4Addr(0x0A020201), 1},
		{packet.IPv4Addr(0x0B000001), NoRoute},
	}
	for _, c := range cases {
		if got := l.Lookup(c.addr); got != c.want {
			t.Errorf("Lookup(%v) = %d, want %d", c.addr, got, c.want)
		}
	}
}

func TestLinearLPM6LongestWins(t *testing.T) {
	entries := []Entry6{
		{Prefix6{Hi: 0x2001000000000000, Len: 16}, 1},
		{Prefix6{Hi: 0x20010db800000000, Len: 32}, 2},
		{Prefix6{Hi: 0x20010db800010000, Len: 48}, 3},
	}
	l := NewLinearLPM6(entries)
	if got := l.Lookup(0x20010db800010001, 5); got != 3 {
		t.Errorf("lookup = %d, want 3", got)
	}
	if got := l.Lookup(0x20010db800020001, 5); got != 2 {
		t.Errorf("lookup = %d, want 2", got)
	}
	if got := l.Lookup(0x2001110000000000, 0); got != 1 {
		t.Errorf("lookup = %d, want 1", got)
	}
	if got := l.Lookup(0x3001000000000000, 0); got != NoRoute {
		t.Errorf("lookup = %d, want NoRoute", got)
	}
}

// TestRIBAddRemoveLookup: adds, replacements and removals show in the
// route set Entries hands to the table builders.
func TestRIBAddRemoveLookup(t *testing.T) {
	r := NewRIB()
	lookup := func() uint16 { return NewLinearLPM(r.Entries()).Lookup(packet.IPv4Addr(0xC0000201)) }
	p := Prefix{packet.IPv4Addr(0xC0000200), 24}
	r.Add(p, 5)
	if r.Len() != 1 {
		t.Errorf("len = %d", r.Len())
	}
	if got := lookup(); got != 5 {
		t.Errorf("lookup = %d, want 5", got)
	}
	r.Add(p, 6) // replace
	if r.Len() != 1 || lookup() != 6 {
		t.Error("replace failed")
	}
	if !r.Remove(p) {
		t.Error("Remove returned false for present prefix")
	}
	if r.Remove(p) {
		t.Error("Remove returned true for absent prefix")
	}
	if got := lookup(); got != NoRoute {
		t.Errorf("lookup after remove = %d", got)
	}
}

func TestRIBEntriesSorted(t *testing.T) {
	r := NewRIB()
	r.Add(Prefix{packet.IPv4Addr(0xC0000000), 8}, 1)
	r.Add(Prefix{packet.IPv4Addr(0x0A000000), 8}, 2)
	r.Add(Prefix{packet.IPv4Addr(0x0A000000), 16}, 3)
	e := r.Entries()
	if len(e) != 3 {
		t.Fatalf("len = %d", len(e))
	}
	if e[0].Prefix.Addr != packet.IPv4Addr(0x0A000000) || e[0].Prefix.Len != 8 {
		t.Errorf("order: %v", e)
	}
	if e[1].Prefix.Len != 16 || e[2].Prefix.Addr != packet.IPv4Addr(0xC0000000) {
		t.Errorf("order: %v", e)
	}
}

func TestFIBDoubleBuffer(t *testing.T) {
	type table struct{ gen int }
	f := NewFIB(&table{gen: 1})
	if f.Active().gen != 1 {
		t.Fatalf("active gen = %d", f.Active().gen)
	}
	old := f.Publish(&table{gen: 2})
	if old.gen != 1 {
		t.Errorf("Publish returned gen %d, want 1", old.gen)
	}
	if f.Active().gen != 2 {
		t.Errorf("active gen = %d, want 2", f.Active().gen)
	}
	// Repeated publishes alternate buffers without losing the latest.
	for i := 3; i <= 10; i++ {
		prev := f.Publish(&table{gen: i})
		if prev.gen != i-1 {
			t.Errorf("publish %d returned gen %d", i, prev.gen)
		}
	}
	if f.Active().gen != 10 {
		t.Errorf("final gen = %d", f.Active().gen)
	}
}
