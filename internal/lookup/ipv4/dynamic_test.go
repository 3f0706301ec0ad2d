package ipv4

import (
	"math/rand"
	"testing"

	"packetshader/internal/packet"
	"packetshader/internal/route"
)

func TestDynamicInsertLookup(t *testing.T) {
	d, err := NewDynamic(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(route.Entry{
		Prefix: route.Prefix{Addr: 0x0A000000, Len: 8}, NextHop: 3}); err != nil {
		t.Fatal(err)
	}
	if got := d.Lookup(0x0A123456); got != 3 {
		t.Errorf("lookup = %d, want 3", got)
	}
	if got := d.Lookup(0x0B000000); got != route.NoRoute {
		t.Errorf("outside = %d, want miss", got)
	}
}

func TestDynamicInsertLongerOverridesInRange(t *testing.T) {
	d, _ := NewDynamic([]route.Entry{
		{Prefix: route.Prefix{Addr: 0x0A000000, Len: 8}, NextHop: 1},
	})
	d.Insert(route.Entry{Prefix: route.Prefix{Addr: 0x0A010000, Len: 16}, NextHop: 2})
	if got := d.Lookup(0x0A010001); got != 2 {
		t.Errorf("/16 = %d", got)
	}
	if got := d.Lookup(0x0A020001); got != 1 {
		t.Errorf("outside /16 = %d", got)
	}
	// Inserting a SHORTER prefix must not override the longer one.
	d.Insert(route.Entry{Prefix: route.Prefix{Addr: 0x0A000000, Len: 10}, NextHop: 7})
	if got := d.Lookup(0x0A010001); got != 2 {
		t.Errorf("/16 clobbered by later /10: %d", got)
	}
	if got := d.Lookup(0x0A200001); got != 7 {
		t.Errorf("/10 not installed: %d", got)
	}
}

func TestDynamicRemoveRestoresCoveringPrefix(t *testing.T) {
	d, _ := NewDynamic([]route.Entry{
		{Prefix: route.Prefix{Addr: 0x0A000000, Len: 8}, NextHop: 1},
		{Prefix: route.Prefix{Addr: 0x0A010000, Len: 16}, NextHop: 2},
	})
	ok, err := d.Remove(route.Prefix{Addr: 0x0A010000, Len: 16})
	if !ok || err != nil {
		t.Fatalf("remove = %v, %v", ok, err)
	}
	if got := d.Lookup(0x0A010001); got != 1 {
		t.Errorf("after remove = %d, want the covering /8's 1", got)
	}
	// Removing again reports absence.
	if ok, _ := d.Remove(route.Prefix{Addr: 0x0A010000, Len: 16}); ok {
		t.Error("double remove reported success")
	}
}

func TestDynamicLongPrefixExpansion(t *testing.T) {
	d, _ := NewDynamic([]route.Entry{
		{Prefix: route.Prefix{Addr: 0xC0A80000, Len: 16}, NextHop: 5},
	})
	d.Insert(route.Entry{Prefix: route.Prefix{Addr: 0xC0A80180, Len: 25}, NextHop: 9})
	if got := d.Lookup(0xC0A801C0); got != 9 {
		t.Errorf("/25 = %d", got)
	}
	if got := d.Lookup(0xC0A80101); got != 5 {
		t.Errorf("same /24 outside /25 = %d, want the /16", got)
	}
	ok, _ := d.Remove(route.Prefix{Addr: 0xC0A80180, Len: 25})
	if !ok {
		t.Fatal("remove failed")
	}
	if got := d.Lookup(0xC0A801C0); got != 5 {
		t.Errorf("after removing /25 = %d, want the /16", got)
	}
}

func TestDynamicInsertIntoExpandedBlock(t *testing.T) {
	// A /16 inserted after a /26 expanded one of its blocks: the
	// expanded cells must take the /26 where covered and the /16
	// elsewhere.
	d, _ := NewDynamic(nil)
	d.Insert(route.Entry{Prefix: route.Prefix{Addr: 0xC0A80140, Len: 26}, NextHop: 9})
	d.Insert(route.Entry{Prefix: route.Prefix{Addr: 0xC0A80000, Len: 16}, NextHop: 5})
	if got := d.Lookup(0xC0A80150); got != 9 {
		t.Errorf("inside /26 = %d", got)
	}
	if got := d.Lookup(0xC0A80101); got != 5 {
		t.Errorf("same block outside /26 = %d, want 5", got)
	}
	if got := d.Lookup(0xC0A8FF01); got != 5 {
		t.Errorf("other block = %d, want 5", got)
	}
}

func TestDynamicNextHopRange(t *testing.T) {
	d, _ := NewDynamic(nil)
	err := d.Insert(route.Entry{Prefix: route.Prefix{Len: 8}, NextHop: MaxNextHop + 1})
	if err != ErrNextHopRange {
		t.Errorf("err = %v", err)
	}
}

// TestDynamicRejectsBadPrefix: Insert and Remove refuse a prefix with
// host bits set or longer than /32 with ErrBadPrefix and leave the table
// and its routes as they were.
func TestDynamicRejectsBadPrefix(t *testing.T) {
	d, err := NewDynamic([]route.Entry{{Prefix: route.Prefix{Addr: 0xff000000, Len: 8}, NextHop: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []route.Prefix{
		{Addr: 0xfffffe00, Len: 8},
		{Addr: 0xff000000, Len: 40},
		{Addr: 0xff000001, Len: 31},
	} {
		if err := d.Insert(route.Entry{Prefix: p, NextHop: 1}); err != ErrBadPrefix {
			t.Errorf("Insert(%v) = %v, want ErrBadPrefix", p, err)
		}
		if ok, err := d.Remove(p); ok || err != ErrBadPrefix {
			t.Errorf("Remove(%v) = %v, %v; want false, ErrBadPrefix", p, ok, err)
		}
	}
	if got := d.Lookup(0xfffffe01); got != 4 || d.Segments() != 0 {
		t.Errorf("after refused updates: Lookup = %d, segments = %d; want 4, 0", got, d.Segments())
	}
}

// TestDynamicAgainstRebuildProperty is the central correctness check: a
// random churn of inserts and removes must leave the incrementally
// updated table identical (as a lookup function) to a from-scratch
// rebuild of the surviving route set.
func TestDynamicAgainstRebuildProperty(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		initial := route.GenerateBGPTable(800, 32, seed)
		d, err := NewDynamic(initial)
		if err != nil {
			t.Fatal(err)
		}
		live := map[route.Prefix]uint16{}
		for _, e := range initial {
			live[e.Prefix] = e.NextHop
		}
		extra := route.GenerateBGPTable(400, 32, seed+1000)
		for step := 0; step < 600; step++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				e := extra[rng.Intn(len(extra))]
				e.NextHop = uint16(rng.Intn(32))
				if err := d.Insert(e); err != nil {
					t.Fatal(err)
				}
				live[e.Prefix] = e.NextHop
			} else {
				// Remove a random live prefix.
				k := rng.Intn(len(live))
				for p := range live {
					if k == 0 {
						ok, err := d.Remove(p)
						if !ok || err != nil {
							t.Fatalf("remove %v: %v %v", p, ok, err)
						}
						delete(live, p)
						break
					}
					k--
				}
			}
		}
		var entries []route.Entry
		for p, h := range live {
			entries = append(entries, route.Entry{Prefix: p, NextHop: h})
		}
		rebuilt, err := Build(entries)
		if err != nil {
			t.Fatal(err)
		}
		// Compare on random addresses and on addresses inside live and
		// removed prefixes.
		for i := 0; i < 4000; i++ {
			addr := packet.IPv4Addr(rng.Uint32())
			if i%3 == 1 && len(entries) > 0 {
				e := entries[rng.Intn(len(entries))]
				addr = packet.IPv4Addr(uint32(e.Prefix.Addr) | (rng.Uint32() &^ e.Prefix.Mask()))
			} else if i%3 == 2 {
				e := extra[rng.Intn(len(extra))]
				addr = packet.IPv4Addr(uint32(e.Prefix.Addr) | (rng.Uint32() &^ e.Prefix.Mask()))
			}
			if got, want := d.Lookup(addr), rebuilt.Lookup(addr); got != want {
				t.Fatalf("seed %d: Lookup(%v) = %d, rebuild says %d", seed, addr, got, want)
			}
		}
	}
}

// TestDynamicUpdateTouchesOnlyAffectedRange: cells outside the updated
// prefix must be bit-identical before and after.
func TestDynamicUpdateTouchesOnlyAffectedRange(t *testing.T) {
	entries := route.GenerateBGPTable(2000, 16, 9)
	d, _ := NewDynamic(entries)
	before := make([]uint16, len(d.tbl24))
	copy(before, d.tbl24)
	p := route.Prefix{Addr: 0x55AA0000, Len: 16}
	d.Insert(route.Entry{Prefix: p, NextHop: 7})
	lo := uint32(p.Addr) >> 8
	hi := lo + 1<<8
	for i := range d.tbl24 {
		inside := uint32(i) >= lo && uint32(i) < hi
		if !inside && d.tbl24[i] != before[i] {
			t.Fatalf("cell %#x outside /16 changed", i)
		}
	}
}

func BenchmarkDynamicInsertSlash24(b *testing.B) {
	entries := route.GenerateBGPTable(100000, 64, 1)
	d, err := NewDynamic(entries)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := route.Prefix{Addr: packet.IPv4Addr(rng.Uint32() &^ 0xff), Len: 24}
		if err := d.Insert(route.Entry{Prefix: p, NextHop: uint16(i % 64)}); err != nil {
			b.Fatal(err)
		}
	}
}
