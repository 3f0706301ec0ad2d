package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"packetshader/internal/model"
	"packetshader/internal/packet"
)

func TestArenaAllocFree(t *testing.T) {
	a := NewArena(4)
	if a.FreePages() != 4 || a.TotalPages() != 4 {
		t.Fatalf("pages = %d/%d", a.FreePages(), a.TotalPages())
	}
	var idxs []int32
	for i := 0; i < 4; i++ {
		page, idx, err := a.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		if len(page) != PageSize {
			t.Fatalf("page len = %d", len(page))
		}
		idxs = append(idxs, idx)
	}
	if _, _, err := a.AllocPage(); err != ErrOutOfMemory {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
	for _, i := range idxs {
		a.FreePage(i)
	}
	if a.FreePages() != 4 {
		t.Errorf("free = %d after returning all", a.FreePages())
	}
}

func TestArenaPagesDisjoint(t *testing.T) {
	a := NewArena(8)
	seen := map[int32]bool{}
	for i := 0; i < 8; i++ {
		page, idx, err := a.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		if seen[idx] {
			t.Fatalf("page %d handed out twice", idx)
		}
		seen[idx] = true
		page[0] = byte(idx) // must not fault or alias
	}
}

func TestSlabAllocFreeReuse(t *testing.T) {
	a := NewArena(16)
	c := NewSlabCache(a, 208)
	o1, err := c.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if len(o1.Data) != 208 {
		t.Fatalf("obj len = %d", len(o1.Data))
	}
	if c.Live() != 1 {
		t.Errorf("live = %d", c.Live())
	}
	c.Free(o1)
	if c.Live() != 0 {
		t.Errorf("live = %d after free", c.Live())
	}
	if c.Allocs != 1 || c.Frees != 1 {
		t.Errorf("ops = %d/%d", c.Allocs, c.Frees)
	}
}

func TestSlabObjectsDisjointWithinSlab(t *testing.T) {
	a := NewArena(4)
	c := NewSlabCache(a, 256)
	objs := make([]Obj, c.ObjectsPerSlab())
	for i := range objs {
		o, err := c.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = o
		for j := range o.Data {
			o.Data[j] = byte(i)
		}
	}
	for i, o := range objs {
		for _, b := range o.Data {
			if b != byte(i) {
				t.Fatalf("object %d data overwritten", i)
			}
		}
	}
}

func TestSlabPageRecycling(t *testing.T) {
	a := NewArena(1)
	c := NewSlabCache(a, 2048) // 2 objects per page
	o1, _ := c.Alloc()
	o2, _ := c.Alloc()
	if a.FreePages() != 0 {
		t.Fatalf("arena free = %d", a.FreePages())
	}
	// A third allocation must fail: arena exhausted.
	if _, err := c.Alloc(); err != ErrOutOfMemory {
		t.Errorf("err = %v", err)
	}
	c.Free(o1)
	c.Free(o2)
	if a.FreePages() != 1 {
		t.Errorf("empty slab did not return its page")
	}
	// And allocation works again.
	if _, err := c.Alloc(); err != nil {
		t.Errorf("realloc after recycle: %v", err)
	}
}

func TestSlabRefillCounting(t *testing.T) {
	a := NewArena(8)
	c := NewSlabCache(a, 1024) // 4 per page
	for i := 0; i < 9; i++ {
		if _, err := c.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Refills != 3 {
		t.Errorf("refills = %d, want 3 (9 objs, 4/page)", c.Refills)
	}
}

func TestSlabInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for oversized object")
		}
	}()
	NewSlabCache(NewArena(1), PageSize+1)
}

// Property: any interleaving of allocs and frees keeps live counts
// consistent and never hands out overlapping objects.
func TestSlabRandomizedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewArena(32)
		c := NewSlabCache(a, 208)
		type tagged struct {
			o   Obj
			tag byte
		}
		var live []tagged
		for step := 0; step < 2000; step++ {
			if len(live) == 0 || (rng.Intn(2) == 0 && len(live) < 400) {
				o, err := c.Alloc()
				if err != nil {
					return false
				}
				tag := byte(rng.Intn(256))
				for j := range o.Data {
					o.Data[j] = tag
				}
				live = append(live, tagged{o, tag})
			} else {
				i := rng.Intn(len(live))
				for _, b := range live[i].o.Data {
					if b != live[i].tag {
						return false // overlap corrupted data
					}
				}
				c.Free(live[i].o)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if c.Live() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestSkbAllocatorPerPacketOps(t *testing.T) {
	a := NewSkbAllocator(NewArena(64))
	const n = 100
	var skbs []*Skb
	for i := 0; i < n; i++ {
		s, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		skbs = append(skbs, s)
	}
	for _, s := range skbs {
		a.Free(s)
	}
	slabOps, pageOps := a.SlabOps()
	// 4 slab ops per packet: alloc+free × (meta, data).
	if slabOps != 4*n {
		t.Errorf("slab ops = %d, want %d", slabOps, 4*n)
	}
	if a.InitOps != n {
		t.Errorf("init ops = %d, want %d", a.InitOps, n)
	}
	if pageOps == 0 {
		t.Error("no page refills recorded")
	}
	if a.Live() != 0 {
		t.Errorf("live = %d", a.Live())
	}
}

func TestSkbAllocatorMetaZeroed(t *testing.T) {
	arena := NewArena(16)
	a := NewSkbAllocator(arena)
	s, _ := a.Alloc()
	for i := range s.Meta.Data {
		s.Meta.Data[i] = 0xFF
	}
	a.Free(s)
	s2, _ := a.Alloc()
	for _, b := range s2.Meta.Data {
		if b != 0 {
			t.Fatal("recycled skb metadata not re-initialized")
		}
	}
}

func TestSkbAllocExhaustionRollsBack(t *testing.T) {
	// Arena sized so the data-buffer alloc fails after the meta alloc
	// succeeded; the meta must be rolled back.
	arena := NewArena(1)
	a := NewSkbAllocator(arena)
	var skbs []*Skb
	for {
		s, err := a.Alloc()
		if err != nil {
			break
		}
		skbs = append(skbs, s)
	}
	live := a.Live()
	if live != len(skbs) {
		t.Errorf("live = %d, want %d (leaked meta on failed alloc)", live, len(skbs))
	}
}

func TestHugeBufferVsSkbOpCount(t *testing.T) {
	// The core §4.2 claim: per-packet allocator operations drop from 4
	// slab ops + init to zero.
	arena := NewArena(64)
	skb := NewSkbAllocator(arena)
	for i := 0; i < 50; i++ {
		s, err := skb.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		skb.Free(s)
	}
	slabOps, _ := skb.SlabOps()
	if slabOps != 200 {
		t.Fatalf("skb path: %d ops for 50 packets", slabOps)
	}
	// Huge buffer (packet.BufPool): once the cell exists, receiving 50
	// packets takes it off the free list and puts it back.
	pool := packet.NewBufPool(model.HugeCellDataBytes)
	pool.Get(64).Release()
	for i := 0; i < 50; i++ {
		b := pool.Get(64)
		b.Data[0] = 1
		b.Release()
	}
	if pool.Allocs != 1 {
		t.Errorf("huge buffer carved %d cells for 50 packets, want 1", pool.Allocs)
	}
}
