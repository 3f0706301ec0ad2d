// Package route provides routing-table substrates for the PacketShader
// applications: IPv4/IPv6 prefix types, a synthetic BGP-table generator
// with the RouteViews-like prefix-length distribution the paper's IPv4
// experiment uses (§6.2.1: 282,797 prefixes, 3% longer than /24), simple
// reference longest-prefix-match implementations used as test oracles,
// and a double-buffered FIB supporting the §7 update scheme.
package route

import (
	"fmt"
	"math/rand"
	"sort"

	"packetshader/internal/packet"
)

// Prefix is an IPv4 route prefix.
type Prefix struct {
	Addr packet.IPv4Addr // host order, low bits zero
	Len  uint8           // 0..32
}

// Mask returns the prefix netmask (host order).
func (p Prefix) Mask() uint32 {
	if p.Len == 0 {
		return 0
	}
	return ^uint32(0) << (32 - p.Len)
}

// Contains reports whether addr falls inside the prefix.
func (p Prefix) Contains(addr packet.IPv4Addr) bool {
	return uint32(addr)&p.Mask() == uint32(p.Addr)
}

// Valid reports whether p is a well-formed prefix: length at most 32 and
// no address bit set below the length. Every table builder and parser
// refuses a prefix that is not.
func (p Prefix) Valid() bool { return p.Len <= 32 && uint32(p.Addr)&^p.Mask() == 0 }

func (p Prefix) String() string { return fmt.Sprintf("%v/%d", p.Addr, p.Len) }

// Entry is a FIB entry: a prefix and its next hop (an output-port /
// adjacency index; 0 is valid, NoRoute marks a miss).
type Entry struct {
	Prefix  Prefix
	NextHop uint16
}

// NoRoute is the next-hop value returned for lookup misses.
const NoRoute uint16 = 0xffff

// Prefix6 is an IPv6 route prefix, stored as two 64-bit halves in host
// order for cheap masked comparison.
type Prefix6 struct {
	Hi, Lo uint64
	Len    uint8 // 0..128
}

// Contains reports whether the address (hi,lo) falls inside the prefix.
func (p Prefix6) Contains(hi, lo uint64) bool {
	mh, ml := Mask6(p.Len)
	return hi&mh == p.Hi && lo&ml == p.Lo
}

// Mask6 returns the 128-bit netmask for a prefix length as two halves.
func Mask6(length uint8) (hi, lo uint64) {
	switch {
	case length == 0:
		return 0, 0
	case length <= 64:
		return ^uint64(0) << (64 - length), 0
	case length >= 128:
		return ^uint64(0), ^uint64(0)
	default:
		return ^uint64(0), ^uint64(0) << (128 - length)
	}
}

// Entry6 is an IPv6 FIB entry.
type Entry6 struct {
	Prefix6 Prefix6
	NextHop uint16
}

// ---------------------------------------------------------------------------
// Synthetic BGP table generation.
// ---------------------------------------------------------------------------

// BGPTableSize is the paper's RouteViews snapshot size (Sept 1, 2009).
const BGPTableSize = 282797

// lengthDistribution approximates the 2009 RouteViews prefix-length
// distribution: /24 dominates (~52%), /25-/32 make up the paper's quoted
// 3%, and the rest spreads across /8-/23.
var lengthDistribution = []struct {
	len    uint8
	weight float64
}{
	{8, 0.001}, {10, 0.001}, {11, 0.002}, {12, 0.003}, {13, 0.005},
	{14, 0.009}, {15, 0.012}, {16, 0.045}, {17, 0.025}, {18, 0.040},
	{19, 0.052}, {20, 0.062}, {21, 0.070}, {22, 0.090}, {23, 0.093},
	{24, 0.460},
	{25, 0.006}, {26, 0.007}, {27, 0.006}, {28, 0.004}, {29, 0.004},
	{30, 0.002}, {31, 0.0005}, {32, 0.0005},
}

// GenerateBGPTable produces n unique IPv4 prefixes with the
// RouteViews-like length distribution and random next hops in
// [0, numNextHops). Deterministic for a given seed.
func GenerateBGPTable(n, numNextHops int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	var cum []float64
	total := 0.0
	for _, d := range lengthDistribution {
		total += d.weight
		cum = append(cum, total)
	}
	var seen prefixSet
	entries := make([]Entry, 0, n)
	for len(entries) < n {
		r := rng.Float64() * total
		idx := sort.SearchFloat64s(cum, r)
		if idx >= len(lengthDistribution) {
			idx = len(lengthDistribution) - 1
		}
		l := lengthDistribution[idx].len
		addr := packet.IPv4Addr(rng.Uint32() & (Prefix{Len: l}).Mask())
		// Keep out of reserved space so generated traffic can hit it.
		if b := uint32(addr) >> 24; b == 0 || b == 10 || b == 127 || b >= 224 {
			continue
		}
		p := Prefix{Addr: addr, Len: l}
		if !seen.add(p) {
			continue
		}
		entries = append(entries, Entry{Prefix: p, NextHop: uint16(rng.Intn(numNextHops))})
	}
	return entries
}

// prefixSet is the set GenerateBGPTable deduplicates through. A prefix
// of length ≤ /24 is bit 1<<Len | Addr>>(32-Len), a binary trie's heap
// numbering and so below 2^25; the bits live in 4 KiB pages allocated on
// first touch, so a small table stays small while a full one keeps its
// hot /24 region at 2 MiB. The ≈ 3 % of longer prefixes go in a map.
type prefixSet struct {
	pages [1 << (25 - setPageBits)]*[1 << setPageBits / 64]uint64
	long  map[Prefix]struct{}
}

const setPageBits = 15 // 4 KiB of bits per page

// add inserts a valid prefix p and reports whether it was absent.
func (s *prefixSet) add(p Prefix) bool {
	if p.Len > 24 {
		if _, ok := s.long[p]; ok {
			return false
		}
		if s.long == nil {
			s.long = make(map[Prefix]struct{})
		}
		s.long[p] = struct{}{}
		return true
	}
	bit := uint32(1)<<p.Len | uint32(p.Addr)>>(32-p.Len)
	page := s.pages[bit>>setPageBits]
	if page == nil {
		page = new([1 << setPageBits / 64]uint64)
		s.pages[bit>>setPageBits] = page
	}
	w, m := &page[bit>>6&(1<<(setPageBits-6)-1)], uint64(1)<<(bit&63)
	if *w&m != 0 {
		return false
	}
	*w |= m
	return true
}

// FractionLongerThan returns the fraction of entries with Len > l.
func FractionLongerThan(entries []Entry, l uint8) float64 {
	if len(entries) == 0 {
		return 0
	}
	c := 0
	for _, e := range entries {
		if e.Prefix.Len > l {
			c++
		}
	}
	return float64(c) / float64(len(entries))
}

// GenerateIPv6Table produces n unique random IPv6 prefixes (§6.2.2: the
// paper randomly generates 200,000 prefixes because real IPv6 tables
// were tiny in 2010 and would unfairly fit the CPU cache). Lengths are
// drawn from {16,24,32,40,48,56,64} weighted toward /48 and /32 as in
// early IPv6 allocation policy.
func GenerateIPv6Table(n, numNextHops int, seed int64) []Entry6 {
	rng := rand.New(rand.NewSource(seed))
	lens := []uint8{16, 24, 32, 40, 48, 56, 64}
	weights := []float64{0.02, 0.05, 0.25, 0.13, 0.40, 0.05, 0.10}
	var cum []float64
	tot := 0.0
	for _, w := range weights {
		tot += w
		cum = append(cum, tot)
	}
	type key struct {
		hi, lo uint64
		l      uint8
	}
	seen := make(map[key]bool, n)
	out := make([]Entry6, 0, n)
	for len(out) < n {
		r := rng.Float64() * tot
		idx := sort.SearchFloat64s(cum, r)
		if idx >= len(lens) {
			idx = len(lens) - 1
		}
		l := lens[idx]
		mh, ml := Mask6(l)
		// 2000::/3 global unicast space.
		hi := (rng.Uint64() & mh &^ (uint64(7) << 61)) | (uint64(1) << 61)
		lo := rng.Uint64() & ml
		k := key{hi, lo, l}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, Entry6{
			Prefix6: Prefix6{Hi: hi, Lo: lo, Len: l},
			NextHop: uint16(rng.Intn(numNextHops)),
		})
	}
	return out
}
