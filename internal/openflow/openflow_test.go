package openflow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"packetshader/internal/packet"
)

func randKey(rng *rand.Rand) FlowKey {
	var k FlowKey
	k.InPort = uint16(rng.Intn(8))
	rng.Read(k.DlSrc[:])
	rng.Read(k.DlDst[:])
	k.DlVLAN = packet.VLANNone
	k.DlType = packet.EtherTypeIPv4
	k.NwSrc = packet.IPv4Addr(rng.Uint32())
	k.NwDst = packet.IPv4Addr(rng.Uint32())
	k.NwProto = packet.ProtoUDP
	k.TpSrc = uint16(rng.Uint32())
	k.TpDst = uint16(rng.Uint32())
	return k
}

func TestFlowKeyBytesInjective(t *testing.T) {
	// Distinct keys must serialize distinctly (the hash input covers
	// every field).
	rng := rand.New(rand.NewSource(1))
	a := randKey(rng)
	fields := []func(*FlowKey){
		func(k *FlowKey) { k.InPort++ },
		func(k *FlowKey) { k.DlSrc[5]++ },
		func(k *FlowKey) { k.DlDst[0]++ },
		func(k *FlowKey) { k.DlVLAN++ },
		func(k *FlowKey) { k.DlType++ },
		func(k *FlowKey) { k.NwSrc++ },
		func(k *FlowKey) { k.NwDst++ },
		func(k *FlowKey) { k.NwProto++ },
		func(k *FlowKey) { k.TpSrc++ },
		func(k *FlowKey) { k.TpDst++ },
	}
	ab := a.Bytes()
	for i, mut := range fields {
		b := a
		mut(&b)
		if b.Bytes() == ab {
			t.Errorf("field %d not covered by Bytes()", i)
		}
	}
}

func TestHashDistribution(t *testing.T) {
	// The FNV hash over random keys should spread across buckets: no
	// bucket of 256 should get more than ~8x its fair share over 16k
	// keys.
	rng := rand.New(rand.NewSource(2))
	const buckets = 256
	var counts [buckets]int
	const n = 16384
	for i := 0; i < n; i++ {
		k := randKey(rng)
		counts[k.Hash()%buckets]++
	}
	for i, c := range counts {
		if c > 8*n/buckets {
			t.Errorf("bucket %d has %d of %d keys", i, c, n)
		}
	}
}

func TestExtractKeyUDP4(t *testing.T) {
	var buf [128]byte
	src, dst := packet.IPv4Addr(0x0A000001), packet.IPv4Addr(0x0A000002)
	frame := packet.BuildUDP4(buf[:], 64,
		packet.MAC{1, 2, 3, 4, 5, 6}, packet.MAC{7, 8, 9, 10, 11, 12},
		src, dst, 1000, 2000)
	var d packet.Decoder
	if err := d.Decode(frame); err != nil {
		t.Fatal(err)
	}
	k := ExtractKey(&d, 3)
	if k.InPort != 3 || k.NwSrc != src || k.NwDst != dst ||
		k.TpSrc != 1000 || k.TpDst != 2000 ||
		k.NwProto != packet.ProtoUDP || k.DlType != packet.EtherTypeIPv4 {
		t.Errorf("key = %+v", k)
	}
	if k.DlVLAN != packet.VLANNone {
		t.Errorf("VLAN = %d", k.DlVLAN)
	}
}

func TestExactTableInsertLookupRemove(t *testing.T) {
	tbl := NewExactTable(100)
	rng := rand.New(rand.NewSource(3))
	k := randKey(rng)
	if _, _, ok := tbl.Lookup(k); ok {
		t.Error("lookup in empty table hit")
	}
	tbl.Insert(k, Action{Type: ActionOutput, Port: 5})
	a, probes, ok := tbl.Lookup(k)
	if !ok || a.Port != 5 || a.Type != ActionOutput {
		t.Errorf("lookup = %+v, %v", a, ok)
	}
	if probes < 1 {
		t.Errorf("probes = %d", probes)
	}
	// Replace.
	tbl.Insert(k, Action{Type: ActionDrop})
	if a, _, _ := tbl.Lookup(k); a.Type != ActionDrop {
		t.Error("replace failed")
	}
	if tbl.Len() != 1 {
		t.Errorf("len = %d, want 1", tbl.Len())
	}
	if !tbl.Remove(k) {
		t.Error("remove failed")
	}
	if tbl.Remove(k) {
		t.Error("double remove succeeded")
	}
	if _, _, ok := tbl.Lookup(k); ok {
		t.Error("lookup after remove hit")
	}
}

func TestExactTableManyFlows(t *testing.T) {
	tbl := NewExactTable(32768)
	rng := rand.New(rand.NewSource(4))
	keys := make([]FlowKey, 32768)
	for i := range keys {
		keys[i] = randKey(rng)
		tbl.Insert(keys[i], Action{Type: ActionOutput, Port: uint16(i % 8)})
	}
	if tbl.Len() != len(keys) {
		t.Fatalf("len = %d", tbl.Len())
	}
	for i, k := range keys {
		a, _, ok := tbl.Lookup(k)
		if !ok || a.Port != uint16(i%8) {
			t.Fatalf("flow %d: %+v %v", i, a, ok)
		}
	}
	// Random keys must miss (with overwhelming probability).
	misses := 0
	for i := 0; i < 1000; i++ {
		if _, _, ok := tbl.Lookup(randKey(rng)); !ok {
			misses++
		}
	}
	if misses < 999 {
		t.Errorf("only %d/1000 random keys missed", misses)
	}
}

func TestWildcardPriorityOrder(t *testing.T) {
	tbl := NewWildcardTable()
	low := Rule{Wild: WAll, Priority: 1, Action: Action{Type: ActionDrop}}
	high := Rule{Wild: WAll &^ WNwProto, Priority: 10,
		Key:    FlowKey{NwProto: packet.ProtoUDP},
		Action: Action{Type: ActionOutput, Port: 2}}
	tbl.Insert(low)
	tbl.Insert(high)
	k := FlowKey{NwProto: packet.ProtoUDP}
	a, scanned, ok := tbl.Lookup(&k)
	if !ok || a.Type != ActionOutput {
		t.Errorf("high priority rule not matched: %+v", a)
	}
	if scanned != 1 {
		t.Errorf("scanned = %d, want 1 (high priority first)", scanned)
	}
	k2 := FlowKey{NwProto: packet.ProtoTCP}
	a2, scanned2, ok := tbl.Lookup(&k2)
	if !ok || a2.Type != ActionDrop {
		t.Errorf("fallback rule not matched")
	}
	if scanned2 != 2 {
		t.Errorf("scanned = %d, want 2", scanned2)
	}
}

func TestWildcardIPPrefixMatch(t *testing.T) {
	tbl := NewWildcardTable()
	tbl.Insert(Rule{
		Wild:      WAll,
		Key:       FlowKey{NwDst: packet.IPv4Addr(0x0A010000)},
		NwDstBits: 16,
		Priority:  5,
		Action:    Action{Type: ActionOutput, Port: 7},
	})
	in := FlowKey{NwDst: packet.IPv4Addr(0x0A01FFFF)}
	if _, _, ok := tbl.Lookup(&in); !ok {
		t.Error("address inside /16 did not match")
	}
	out := FlowKey{NwDst: packet.IPv4Addr(0x0A020000)}
	if _, _, ok := tbl.Lookup(&out); ok {
		t.Error("address outside /16 matched")
	}
}

func TestWildcardAllFieldsChecked(t *testing.T) {
	// A rule with no wildcards must match only the exact key.
	rng := rand.New(rand.NewSource(6))
	key := randKey(rng)
	tbl := NewWildcardTable()
	tbl.Insert(Rule{Key: key, Wild: 0, NwSrcBits: 32, NwDstBits: 32,
		Priority: 1, Action: Action{Type: ActionOutput, Port: 1}})
	if _, _, ok := tbl.Lookup(&key); !ok {
		t.Fatal("exact rule did not match its own key")
	}
	muts := []func(*FlowKey){
		func(k *FlowKey) { k.InPort++ },
		func(k *FlowKey) { k.DlSrc[0]++ },
		func(k *FlowKey) { k.DlDst[0]++ },
		func(k *FlowKey) { k.DlVLAN ^= 1 },
		func(k *FlowKey) { k.DlType++ },
		func(k *FlowKey) { k.NwSrc++ },
		func(k *FlowKey) { k.NwDst++ },
		func(k *FlowKey) { k.NwProto++ },
		func(k *FlowKey) { k.TpSrc++ },
		func(k *FlowKey) { k.TpDst++ },
	}
	for i, mut := range muts {
		k := key
		mut(&k)
		if _, _, ok := tbl.Lookup(&k); ok {
			t.Errorf("mutation %d still matched exact rule", i)
		}
	}
}

func TestSwitchExactBeatsWildcard(t *testing.T) {
	sw := NewSwitch(16)
	rng := rand.New(rand.NewSource(7))
	k := randKey(rng)
	sw.Wildcard.Insert(Rule{Wild: WAll, Priority: 100,
		Action: Action{Type: ActionOutput, Port: 1}})
	sw.Exact.Insert(k, Action{Type: ActionOutput, Port: 2})
	a, ok := sw.Classify(&k)
	if !ok || a.Port != 2 {
		t.Errorf("exact did not take precedence: %+v", a)
	}
	other := randKey(rng)
	a, ok = sw.Classify(&other)
	if !ok || a.Port != 1 {
		t.Errorf("wildcard fallback failed: %+v", a)
	}
}

func TestSwitchMissGoesToController(t *testing.T) {
	sw := NewSwitch(4)
	rng := rand.New(rand.NewSource(8))
	k := randKey(rng)
	a, ok := sw.Classify(&k)
	if ok || a.Type != ActionController {
		t.Errorf("miss = %+v, %v", a, ok)
	}
	if sw.Misses != 1 {
		t.Errorf("misses = %d", sw.Misses)
	}
}

// Property: Classify is deterministic and exact-match always wins.
func TestClassifyDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sw := NewSwitch(64)
		keys := make([]FlowKey, 32)
		for i := range keys {
			keys[i] = randKey(rng)
			sw.Exact.Insert(keys[i], Action{Type: ActionOutput, Port: uint16(i)})
		}
		sw.Wildcard.Insert(Rule{Wild: WAll, Priority: 0, Action: Action{Type: ActionDrop}})
		for i, k := range keys {
			a1, ok1 := sw.Classify(&k)
			a2, ok2 := sw.Classify(&k)
			if !ok1 || !ok2 || a1.Type != a2.Type || a1.Port != a2.Port || a1.Port != uint16(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestInsertStableForEqualPriority(t *testing.T) {
	tbl := NewWildcardTable()
	tbl.Insert(Rule{Wild: WAll, Priority: 5, Action: Action{Type: ActionOutput, Port: 1}})
	tbl.Insert(Rule{Wild: WAll, Priority: 5, Action: Action{Type: ActionOutput, Port: 2}})
	k := FlowKey{}
	a, _, _ := tbl.Lookup(&k)
	if a.Port != 1 {
		t.Errorf("first-inserted rule at equal priority should win, got port %d", a.Port)
	}
}
