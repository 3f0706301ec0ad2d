package ipv4

import (
	"testing"

	"packetshader/internal/packet"
	"packetshader/internal/route"
)

// fuzzPool is the prefix pool FuzzDynamicTable's programs draw from:
// nested and adjacent valid prefixes across both table levels and both
// ends of the address space, then four a table must refuse. The
// shortest is /6: a DynamicTable recomputes 2^(24-len) cells through its
// trie per update, and a /0 (16 M cells) would make each run slow.
var fuzzPool = [16]route.Prefix{
	{Addr: 0x08000000, Len: 6},
	{Addr: 0x0a000000, Len: 8},
	{Addr: 0x0a010000, Len: 16},
	{Addr: 0x0a010000, Len: 23},
	{Addr: 0x0a010100, Len: 24},
	{Addr: 0x0a010180, Len: 25},
	{Addr: 0x0a0101c0, Len: 26},
	{Addr: 0x0a0101c8, Len: 32},
	{Addr: 0x0a010200, Len: 24},
	{Addr: 0x0a010200, Len: 31},
	{Addr: 0xffffffff, Len: 32},
	{Addr: 0x00000000, Len: 32},
	{Addr: 0xfffffe00, Len: 8},  // host bits set
	{Addr: 0x0a010101, Len: 24}, // host bits set
	{Addr: 0x0a000000, Len: 33},
	{Addr: 0x0a000000, Len: 40},
}

// FuzzDynamicTable runs a program of route updates against a
// DynamicTable. Each op is two bytes: the first picks a pool prefix (low
// four bits) and inserts it (high bit clear; a replace when the prefix is
// live) or removes it; the second is the next hop. After every op, at the
// first and last address of every pool prefix and at both outside
// neighbours, Lookup must equal a fresh Build of the surviving routes and
// route.LinearLPM over them. An invalid prefix must return ErrBadPrefix
// and change nothing.
func FuzzDynamicTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		const maxOps = 16
		d, err := NewDynamic(nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Build(nil)
		if err != nil {
			t.Fatal(err)
		}
		var live [len(fuzzPool)]bool
		var hops [len(fuzzPool)]uint16
		for op := 0; op+1 < len(prog) && op < 2*maxOps; op += 2 {
			i, remove, hop := int(prog[op]&15), prog[op]&0x80 != 0, uint16(prog[op+1])
			p := fuzzPool[i]
			segs, cells := d.Segments(), len(d.tblLong)
			if remove {
				ok, err := d.Remove(p)
				switch {
				case !p.Valid() && (ok || err != ErrBadPrefix):
					t.Fatalf("Remove(%v) = %v, %v; want false, ErrBadPrefix", p, ok, err)
				case p.Valid() && (ok != live[i] || err != nil):
					t.Fatalf("Remove(%v) = %v, %v; want %v, nil", p, ok, err, live[i])
				}
				live[i] = false
			} else {
				err := d.Insert(route.Entry{Prefix: p, NextHop: hop})
				switch {
				case !p.Valid() && err != ErrBadPrefix:
					t.Fatalf("Insert(%v) = %v, want ErrBadPrefix", p, err)
				case p.Valid() && err != nil:
					t.Fatalf("Insert(%v) = %v", p, err)
				}
				live[i], hops[i] = p.Valid(), hop
			}
			if !p.Valid() && (d.Segments() != segs || len(d.tblLong) != cells) {
				t.Fatalf("refused %v grew TBLlong: %d → %d segments", p, segs, d.Segments())
			}
			var surviving []route.Entry
			for j, on := range live {
				if on {
					surviving = append(surviving, route.Entry{Prefix: fuzzPool[j], NextHop: hops[j]})
				}
			}
			if p.Valid() {
				if ref, err = Build(surviving); err != nil {
					t.Fatal(err)
				}
			}
			lin := route.NewLinearLPM(surviving)
			for _, q := range fuzzPool {
				first := uint32(q.Addr) & q.Mask()
				last := first | ^q.Mask()
				for _, a := range []uint32{first, last, first - 1, last + 1} {
					addr := packet.IPv4Addr(a)
					got, built, want := d.Lookup(addr), ref.Lookup(addr), lin.Lookup(addr)
					if got != want || built != want {
						t.Fatalf("after op %d (%v): Lookup(%v) = %d, Build says %d, LinearLPM %d",
							op/2, p, addr, got, built, want)
					}
				}
			}
		}
	})
}
