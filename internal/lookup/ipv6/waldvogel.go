// Package ipv6 implements longest-prefix matching by binary search on
// prefix lengths (Waldvogel, Varghese, Turner, Plattner — SIGCOMM 1997),
// the algorithm PacketShader uses for IPv6 forwarding (§6.2.2). A lookup
// probes O(log L) per-length hash tables; marker entries seeded with
// their best-matching prefix steer the search toward longer lengths
// without backtracking. For 128-bit addresses this is the paper's
// "seven memory accesses" per lookup.
package ipv6

import (
	"sort"

	"packetshader/internal/route"
)

// key is a masked 128-bit address (the hash-table key at one length).
type key struct{ hi, lo uint64 }

// ent is a hash-table slot: it can simultaneously be a real prefix and a
// marker for longer prefixes sharing the same masked bits.
type ent struct {
	prefixHop uint16 // route.NoRoute if the slot is marker-only
	markerBmp uint16 // best-matching prefix at shorter lengths
	isMarker  bool
}

// node is one level of the balanced binary search tree over the distinct
// prefix lengths present in the table.
type node struct {
	length          uint8
	shorter, longer *node
}

// Table is a built IPv6 lookup structure, immutable after Build.
type Table struct {
	root    *node
	tables  map[uint8]map[key]ent
	lengths []uint8
	// maxDepth is the deepest search path (number of hash probes).
	maxDepth int
}

// Build constructs the search tree, inserts prefixes, plants markers
// along each prefix's search path, and precomputes marker BMPs.
func Build(entries []route.Entry6) *Table {
	t := &Table{tables: make(map[uint8]map[key]ent)}
	lengthSet := make(map[uint8]bool)
	for _, e := range entries {
		lengthSet[e.Prefix6.Len] = true
	}
	for l := range lengthSet {
		t.lengths = append(t.lengths, l)
		t.tables[l] = make(map[key]ent)
	}
	sort.Slice(t.lengths, func(i, j int) bool { return t.lengths[i] < t.lengths[j] })
	t.root = buildTree(t.lengths, &t.maxDepth, 1)

	// Insert prefixes and markers.
	for _, e := range entries {
		t.insert(e)
	}
	// Precompute each marker's best-matching prefix among strictly
	// shorter lengths: probe every shorter length's table.
	for l, tbl := range t.tables {
		for k, slot := range tbl {
			if !slot.isMarker {
				continue
			}
			slot.markerBmp = t.shorterBMP(k, l)
			tbl[k] = slot
		}
	}
	return t
}

func buildTree(lengths []uint8, maxDepth *int, depth int) *node {
	if len(lengths) == 0 {
		return nil
	}
	if depth > *maxDepth {
		*maxDepth = depth
	}
	mid := len(lengths) / 2
	return &node{
		length:  lengths[mid],
		shorter: buildTree(lengths[:mid], maxDepth, depth+1),
		longer:  buildTree(lengths[mid+1:], maxDepth, depth+1),
	}
}

func maskKey(hi, lo uint64, length uint8) key {
	mh, ml := route.Mask6(length)
	return key{hi & mh, lo & ml}
}

func (t *Table) insert(e route.Entry6) {
	n := t.root
	for n != nil {
		k := maskKey(e.Prefix6.Hi, e.Prefix6.Lo, n.length)
		switch {
		case n.length == e.Prefix6.Len:
			slot, ok := t.tables[n.length][k]
			if !ok {
				slot.markerBmp = route.NoRoute
			}
			slot.prefixHop = e.NextHop
			t.tables[n.length][k] = slot
			return
		case n.length < e.Prefix6.Len:
			// The search for this prefix's addresses passes through
			// this node going longer: plant a marker.
			slot, ok := t.tables[n.length][k]
			if !ok {
				slot.prefixHop = route.NoRoute
			}
			slot.isMarker = true
			t.tables[n.length][k] = slot
			n = n.longer
		default:
			n = n.shorter
		}
	}
}

// shorterBMP returns the hop of the longest prefix strictly shorter than
// length matching k.
func (t *Table) shorterBMP(k key, length uint8) uint16 {
	best := route.NoRoute
	for _, l := range t.lengths {
		if l >= length {
			break
		}
		kk := maskKey(k.hi, k.lo, l)
		if slot, ok := t.tables[l][kk]; ok && slot.prefixHop != route.NoRoute {
			best = slot.prefixHop
		}
	}
	return best
}

// Lookup returns the next hop for the address (hi, lo), or route.NoRoute.
func (t *Table) Lookup(hi, lo uint64) uint16 {
	hop, _ := t.LookupCounted(hi, lo)
	return hop
}

// LookupCounted additionally reports how many hash probes the search
// performed (the memory-access count charged by the cost model).
func (t *Table) LookupCounted(hi, lo uint64) (uint16, int) {
	best := route.NoRoute
	probes := 0
	n := t.root
	for n != nil {
		probes++
		k := maskKey(hi, lo, n.length)
		slot, ok := t.tables[n.length][k]
		if !ok {
			n = n.shorter
			continue
		}
		if slot.prefixHop != route.NoRoute {
			best = slot.prefixHop
		} else if slot.isMarker && slot.markerBmp != route.NoRoute {
			best = slot.markerBmp
		}
		if !slot.isMarker {
			break // a pure prefix slot: nothing longer exists this way
		}
		n = n.longer
	}
	return best, probes
}

// LookupBatch resolves a batch of addresses; this is the function the
// GPU kernel runs, one thread per address (§2.3, Figure 2).
func (t *Table) LookupBatch(his, los []uint64, hops []uint16) {
	for i := range his {
		hops[i] = t.Lookup(his[i], los[i])
	}
}

// MaxDepth returns the search-tree depth (worst-case probes).
func (t *Table) MaxDepth() int { return t.maxDepth }

// Entries returns the number of stored slots (prefixes + markers).
func (t *Table) Entries() int {
	n := 0
	for _, tbl := range t.tables {
		n += len(tbl)
	}
	return n
}
