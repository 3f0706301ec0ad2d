package ipv4

import (
	"packetshader/internal/packet"
	"packetshader/internal/route"
)

// DynamicTable is a DIR-24-8 table supporting incremental route updates
// — the alternative to double buffering that §7 raises for the FIB
// update problem. A shadow binary trie over the installed prefixes
// answers "who owns this cell now" queries, so an insert or remove
// touches only the table cells inside the changed prefix's range
// (2^(24-len) TBL24 cells, or up to 2^(32-len) TBLlong cells), leaving
// the data path's reads undisturbed: every intermediate state of the
// table is a consistent routing function.
type DynamicTable struct {
	Table
	trie shadowTrie
}

// NewDynamic builds a dynamic table from an initial route set.
func NewDynamic(entries []route.Entry) (*DynamicTable, error) {
	base, err := Build(entries)
	if err != nil {
		return nil, err
	}
	d := &DynamicTable{Table: *base}
	d.trie.init()
	for _, e := range entries {
		d.trie.insert(e.Prefix, e.NextHop)
	}
	return d, nil
}

// Insert adds or replaces a route and patches the affected cells.
func (d *DynamicTable) Insert(e route.Entry) error {
	if err := check(e); err != nil {
		return err
	}
	d.trie.insert(e.Prefix, e.NextHop)
	return d.refresh(e.Prefix)
}

// Remove deletes a route (if present) and patches the affected cells.
func (d *DynamicTable) Remove(p route.Prefix) (bool, error) {
	if !p.Valid() {
		return false, ErrBadPrefix
	}
	if !d.trie.remove(p) {
		return false, nil
	}
	return true, d.refresh(p)
}

// refresh recomputes every table cell covered by p from the trie.
func (d *DynamicTable) refresh(p route.Prefix) error {
	if p.Len <= 24 {
		base := uint32(p.Addr) >> 8
		count := uint32(1) << (24 - p.Len)
		for i := uint32(0); i < count; i++ {
			block := base + i
			cur := d.tbl24[block]
			if cur&longFlag != 0 {
				// Expanded block: recompute all 256 host cells.
				d.refreshSegment(block)
				continue
			}
			hop, ok := d.trie.lpmUpTo(packet.IPv4Addr(block<<8), 24)
			if !ok {
				d.tbl24[block] = missEntry
			} else {
				d.tbl24[block] = hop + 1
			}
		}
		return nil
	}
	// Long prefix: ensure the block is expanded, then recompute the
	// covered host cells.
	block := uint32(p.Addr) >> 8
	if _, err := d.segment(block); err != nil {
		return err
	}
	d.refreshRange(block, uint32(p.Addr)&0xff, uint32(1)<<(32-p.Len))
	return nil
}

// refreshSegment recomputes all 256 cells of an expanded block.
func (d *DynamicTable) refreshSegment(block uint32) {
	d.refreshRange(block, 0, 256)
}

func (d *DynamicTable) refreshRange(block, low, count uint32) {
	seg := int(d.tbl24[block]&^uint16(longFlag)) << 8
	for j := uint32(0); j < count; j++ {
		addr := packet.IPv4Addr(block<<8 | (low + j))
		hop, ok := d.trie.lpmUpTo(addr, 32)
		if !ok {
			d.tblLong[seg+int(low+j)] = missEntry
		} else {
			d.tblLong[seg+int(low+j)] = hop + 1
		}
	}
}

// ---------------------------------------------------------------------------
// Shadow trie: a plain binary trie over installed prefixes, supporting
// longest-prefix-match queries bounded by a maximum length.
// ---------------------------------------------------------------------------

type trieNode struct {
	child  [2]int32
	hop    uint16
	prefix bool
}

type shadowTrie struct {
	nodes []trieNode
}

func (t *shadowTrie) init() {
	t.nodes = t.nodes[:0]
	t.nodes = append(t.nodes, trieNode{child: [2]int32{-1, -1}})
}

func (t *shadowTrie) insert(p route.Prefix, hop uint16) {
	cur := int32(0)
	for depth := 0; depth < int(p.Len); depth++ {
		bit := (uint32(p.Addr) >> (31 - depth)) & 1
		next := t.nodes[cur].child[bit]
		if next < 0 {
			t.nodes = append(t.nodes, trieNode{child: [2]int32{-1, -1}})
			next = int32(len(t.nodes) - 1)
			t.nodes[cur].child[bit] = next
		}
		cur = next
	}
	t.nodes[cur].hop = hop
	t.nodes[cur].prefix = true
}

// remove clears the prefix flag (nodes are not reclaimed; update churn
// in routing tables revisits the same paths constantly, so the slack is
// reused).
func (t *shadowTrie) remove(p route.Prefix) bool {
	cur := int32(0)
	for depth := 0; depth < int(p.Len); depth++ {
		bit := (uint32(p.Addr) >> (31 - depth)) & 1
		cur = t.nodes[cur].child[bit]
		if cur < 0 {
			return false
		}
	}
	had := t.nodes[cur].prefix
	t.nodes[cur].prefix = false
	return had
}

// lpmUpTo returns the hop of the longest installed prefix covering addr
// with length ≤ maxLen.
func (t *shadowTrie) lpmUpTo(addr packet.IPv4Addr, maxLen int) (uint16, bool) {
	var best uint16
	found := false
	cur := int32(0)
	for depth := 0; ; depth++ {
		n := &t.nodes[cur]
		if n.prefix && depth <= maxLen {
			best = n.hop
			found = true
		}
		if depth >= maxLen || depth >= 32 {
			break
		}
		bit := (uint32(addr) >> (31 - depth)) & 1
		cur = n.child[bit]
		if cur < 0 {
			break
		}
	}
	return best, found
}
