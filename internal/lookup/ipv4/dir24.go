// Package ipv4 implements the DIR-24-8-BASIC longest-prefix-match scheme
// of Gupta, Lin and McKeown (INFOCOM 1998), the algorithm PacketShader
// uses for IPv4 forwarding (§6.2.1): a 2^24-entry first-level table
// resolves most lookups in one memory access; prefixes longer than /24
// indirect into 256-entry second-level segments, costing one more access.
package ipv4

import (
	"errors"
	"slices"

	"packetshader/internal/packet"
	"packetshader/internal/route"
)

const (
	tbl24Size = 1 << 24
	// longFlag marks a TBL24 entry as a pointer into TBLlong.
	longFlag = 0x8000
	// missEntry is the in-table miss sentinel. Next hops are stored
	// biased by one so the sentinel is the ZERO value: a fresh table is
	// all-miss straight out of make(), sparing Build a 16M-cell fill
	// that dominated table-construction CPU profiles.
	missEntry = 0
	// MaxNextHop is the largest next-hop index the 15-bit biased
	// encoding can store (hop+1 must stay below longFlag).
	MaxNextHop = 0x7ffe
)

// ErrNextHopRange reports a next hop too large for the 15-bit encoding.
var ErrNextHopRange = errors.New("ipv4: next hop exceeds MaxNextHop")

// ErrTooManySegments reports more than 2^15 distinct /24 blocks with
// long prefixes (cannot be encoded in a TBL24 pointer).
var ErrTooManySegments = errors.New("ipv4: too many TBLlong segments")

// ErrBadPrefix reports a prefix that is not route.Prefix.Valid: longer
// than /32, or with host bits set. It is returned before any cell is
// written.
var ErrBadPrefix = errors.New("ipv4: prefix longer than /32 or with host bits set")

// Table is a built DIR-24-8 lookup structure. It is immutable after
// Build; the FIB double-buffering in internal/route swaps whole Tables.
type Table struct {
	tbl24   []uint16
	tblLong []uint16 // 256-cell segments, one per expanded /24 block
}

// Build constructs a Table from a route set. Entries may arrive in any
// order; longer prefixes take precedence, as LPM requires.
func Build(entries []route.Entry) (*Table, error) {
	// Write shortest first so longer prefixes overwrite. A counting sort
	// over the 33 possible lengths is stable (order within a length is
	// preserved), so a duplicated prefix keeps its last entry's hop. It
	// also puts every /≤24 entry before every /25+ one, so a short
	// prefix never meets an expanded block and is one fill of its range.
	var byLen [33]int
	for _, e := range entries {
		if err := check(e); err != nil {
			return nil, err
		}
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
	for _, e := range sorted {
		block := uint32(e.Prefix.Addr) >> 8
		if e.Prefix.Len <= 24 {
			fill(t.tbl24[block:block+1<<(24-e.Prefix.Len)], e.NextHop+1)
			continue
		}
		seg, err := t.segment(block)
		if err != nil {
			return nil, err
		}
		host := uint32(e.Prefix.Addr) & 0xff
		fill(seg[host:host+1<<(32-e.Prefix.Len)], e.NextHop+1)
	}
	return t, nil
}

// check is the per-entry rule every table write rests on.
func check(e route.Entry) error {
	if !e.Prefix.Valid() {
		return ErrBadPrefix
	}
	if e.NextHop > MaxNextHop {
		return ErrNextHopRange
	}
	return nil
}

// segment returns the TBLlong segment of a /24 block, expanding the
// block first if needed: the new segment is seeded with the shorter
// route (or miss) that covered the block.
func (t *Table) segment(block uint32) ([]uint16, error) {
	cur := t.tbl24[block]
	if cur&longFlag == 0 {
		n := len(t.tblLong)
		if n>>8 >= 1<<15 {
			return nil, ErrTooManySegments
		}
		t.tblLong = slices.Grow(t.tblLong, 256)[:n+256]
		fill(t.tblLong[n:], cur)
		cur = uint16(n>>8) | longFlag
		t.tbl24[block] = cur
	}
	seg := int(cur&^uint16(longFlag)) << 8
	return t.tblLong[seg : seg+256], nil
}

// fill sets every cell of s to v. Each copy doubles the filled prefix,
// so a long range (a /8 is 65,536 cells) is written at memmove's width
// rather than one cell per store.
func fill(s []uint16, v uint16) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for n := 1; n < len(s); n *= 2 {
		copy(s[n:], s[:n])
	}
}

// Lookup returns the next hop for addr, or route.NoRoute.
func (t *Table) Lookup(addr packet.IPv4Addr) uint16 {
	hop, _ := t.LookupCounted(addr)
	return hop
}

// LookupCounted additionally reports the number of (modelled) memory
// accesses the lookup performed: 1 for a TBL24 hit, 2 through TBLlong.
func (t *Table) LookupCounted(addr packet.IPv4Addr) (uint16, int) {
	e := t.tbl24[uint32(addr)>>8]
	if e&longFlag == 0 {
		if e == missEntry {
			return route.NoRoute, 1
		}
		return e - 1, 1
	}
	v := t.tblLong[int(e&^uint16(longFlag))<<8|int(addr&0xff)]
	if v == missEntry {
		return route.NoRoute, 2
	}
	return v - 1, 2
}

// LookupBatch resolves a batch of destination addresses into hops. This
// is the exact function the GPU kernel runs, one thread per address.
func (t *Table) LookupBatch(addrs []packet.IPv4Addr, hops []uint16) {
	for i, a := range addrs {
		hops[i] = t.Lookup(a)
	}
}

// Segments returns the number of allocated TBLlong segments.
func (t *Table) Segments() int { return len(t.tblLong) >> 8 }

// MemBytes returns the memory footprint of the lookup structure —
// relevant because it never fits a CPU cache (§6.2.1), which is what
// makes the workload memory-intensive.
func (t *Table) MemBytes() int {
	return 2 * (len(t.tbl24) + len(t.tblLong))
}
