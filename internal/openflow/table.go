package openflow

import "sort"

// exactEntry is one exact-match flow.
type exactEntry struct {
	key    FlowKey
	action Action
}

// ExactTable is an open-addressed (bucketed) hash table over full
// 10-field keys. It exposes its probe count so the cost model can charge
// the right number of memory accesses.
type ExactTable struct {
	buckets [][]exactEntry
	mask    uint32
	count   int
}

// NewExactTable creates a table sized for about n entries.
func NewExactTable(n int) *ExactTable {
	size := 1
	for size < n*2 {
		size <<= 1
	}
	if size < 16 {
		size = 16
	}
	return &ExactTable{buckets: make([][]exactEntry, size), mask: uint32(size - 1)}
}

// Len returns the number of installed flows.
func (t *ExactTable) Len() int { return t.count }

// Insert installs or replaces a flow.
func (t *ExactTable) Insert(key FlowKey, action Action) {
	idx := key.Hash() & t.mask
	b := t.buckets[idx]
	for i := range b {
		if b[i].key == key {
			b[i].action = action
			return
		}
	}
	t.buckets[idx] = append(b, exactEntry{key: key, action: action})
	t.count++
}

// Remove deletes a flow, reporting whether it existed.
func (t *ExactTable) Remove(key FlowKey) bool {
	idx := key.Hash() & t.mask
	b := t.buckets[idx]
	for i := range b {
		if b[i].key == key {
			t.buckets[idx] = append(b[:i], b[i+1:]...)
			t.count--
			return true
		}
	}
	return false
}

// Lookup finds the flow for key. probes is the number of entry
// comparisons performed (≥1 even on miss: the bucket read).
func (t *ExactTable) Lookup(key FlowKey) (action Action, probes int, ok bool) {
	return t.LookupHashed(key, key.Hash())
}

// LookupHashed is Lookup with a precomputed hash — the GPU-offloaded
// path computes hashes on the device and the post-shading CPU step
// finishes the probe.
func (t *ExactTable) LookupHashed(key FlowKey, hash uint32) (action Action, probes int, ok bool) {
	idx := hash & t.mask
	b := t.buckets[idx]
	probes = 1
	for i := range b {
		probes++
		if b[i].key == key {
			return b[i].action, probes, true
		}
	}
	return Action{}, probes, false
}

// ---------------------------------------------------------------------------
// Wildcard table.
// ---------------------------------------------------------------------------

// Wildcards flags which fields of a rule are "don't care".
type Wildcards uint16

// Wildcard bits (IP addresses use prefix masks instead, below).
const (
	WInPort Wildcards = 1 << iota
	WDlSrc
	WDlDst
	WDlVLAN
	WDlType
	WNwProto
	WTpSrc
	WTpDst
)

// WAll wildcards every non-IP field.
const WAll = WInPort | WDlSrc | WDlDst | WDlVLAN | WDlType | WNwProto | WTpSrc | WTpDst

// Rule is one wildcard-match entry: a key template, wildcard flags, IP
// prefix masks (0 = fully wildcarded, 32 = exact), and a priority.
type Rule struct {
	Key       FlowKey
	Wild      Wildcards
	NwSrcBits uint8
	NwDstBits uint8
	Priority  int
	Action    Action
}

// Matches reports whether k satisfies the rule.
func (r *Rule) Matches(k *FlowKey) bool {
	if r.Wild&WInPort == 0 && r.Key.InPort != k.InPort {
		return false
	}
	if r.Wild&WDlSrc == 0 && r.Key.DlSrc != k.DlSrc {
		return false
	}
	if r.Wild&WDlDst == 0 && r.Key.DlDst != k.DlDst {
		return false
	}
	if r.Wild&WDlVLAN == 0 && r.Key.DlVLAN != k.DlVLAN {
		return false
	}
	if r.Wild&WDlType == 0 && r.Key.DlType != k.DlType {
		return false
	}
	if r.Wild&WNwProto == 0 && r.Key.NwProto != k.NwProto {
		return false
	}
	if r.Wild&WTpSrc == 0 && r.Key.TpSrc != k.TpSrc {
		return false
	}
	if r.Wild&WTpDst == 0 && r.Key.TpDst != k.TpDst {
		return false
	}
	if m := prefixMask(r.NwSrcBits); uint32(r.Key.NwSrc)&m != uint32(k.NwSrc)&m {
		return false
	}
	if m := prefixMask(r.NwDstBits); uint32(r.Key.NwDst)&m != uint32(k.NwDst)&m {
		return false
	}
	return true
}

func prefixMask(bits uint8) uint32 {
	if bits == 0 {
		return 0
	}
	if bits >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - bits)
}

// WildcardTable is a priority-ordered rule list searched linearly, as
// the OpenFlow reference switch does (§6.2.3).
type WildcardTable struct {
	rules []Rule // sorted by descending priority
}

// NewWildcardTable creates an empty table.
func NewWildcardTable() *WildcardTable { return &WildcardTable{} }

// Len returns the rule count.
func (t *WildcardTable) Len() int { return len(t.rules) }

// Insert adds a rule, keeping descending-priority order (stable for
// equal priorities: earlier insertions win, per the spec's
// first-match-at-priority behaviour).
func (t *WildcardTable) Insert(r Rule) {
	i := sort.Search(len(t.rules), func(i int) bool {
		return t.rules[i].Priority < r.Priority
	})
	t.rules = append(t.rules, Rule{})
	copy(t.rules[i+1:], t.rules[i:])
	t.rules[i] = r
}

// Lookup linearly scans for the highest-priority matching rule.
// scanned is the number of rules examined (charged by the cost model).
func (t *WildcardTable) Lookup(k *FlowKey) (action Action, scanned int, ok bool) {
	for i := range t.rules {
		scanned++
		if t.rules[i].Matches(k) {
			return t.rules[i].Action, scanned, true
		}
	}
	return Action{}, scanned, false
}

// ---------------------------------------------------------------------------
// Switch: exact + wildcard with OpenFlow precedence.
// ---------------------------------------------------------------------------

// Switch is the combined OpenFlow data path table set.
type Switch struct {
	Exact    *ExactTable
	Wildcard *WildcardTable
	// Misses counts packets matching neither table (punted to the
	// controller and dropped by the data path).
	Misses uint64
}

// NewSwitch creates a switch sized for nExact exact entries.
func NewSwitch(nExact int) *Switch {
	return &Switch{Exact: NewExactTable(nExact), Wildcard: NewWildcardTable()}
}

// Classify implements the OpenFlow precedence: an exact match always
// wins over any wildcard entry; otherwise the highest-priority wildcard
// rule; otherwise a miss.
func (s *Switch) Classify(k *FlowKey) (Action, bool) {
	if a, _, ok := s.Exact.Lookup(*k); ok {
		return a, true
	}
	if a, _, ok := s.Wildcard.Lookup(k); ok {
		return a, true
	}
	s.Misses++
	return Action{Type: ActionController}, false
}
