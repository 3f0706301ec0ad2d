package mem

// SlabCache is an object cache in the style of Bonwick's slab allocator
// [USENIX 1994], the allocator behind Linux's kmalloc/kmem_cache that
// Table 3 shows consuming half the RX cycles: pages from the arena are
// carved into fixed-size objects; freed objects return to their slab's
// freelist; empty slabs return pages to the arena.
type SlabCache struct {
	arena   *Arena
	objSize int
	perSlab int

	slabs   map[int32]*slab // by page index
	partial []*slab         // slabs with free objects (LIFO)

	// Allocs and Frees count object operations; Refills counts page
	// requests to the arena (the "underlying page allocator" cost).
	Allocs, Frees, Refills uint64
	live                   int
}

type slab struct {
	page      []byte
	pageIdx   int32
	free      []int16 // object indexes
	used      int
	inPartial bool
}

// NewSlabCache creates a cache of objSize-byte objects over arena.
func NewSlabCache(arena *Arena, objSize int) *SlabCache {
	if objSize <= 0 || objSize > PageSize {
		panic("mem: slab object size must be in (0, PageSize]")
	}
	return &SlabCache{
		arena:   arena,
		objSize: objSize,
		perSlab: PageSize / objSize,
		slabs:   make(map[int32]*slab),
	}
}

// Obj is a handle to an allocated object.
type Obj struct {
	Data    []byte
	pageIdx int32
	objIdx  int16
}

// Alloc returns an object (zeroing is the caller's concern, mirroring
// kmalloc semantics — skb *initialization* is a separate cost bin).
func (c *SlabCache) Alloc() (Obj, error) {
	c.Allocs++
	if len(c.partial) == 0 {
		page, idx, err := c.arena.AllocPage()
		if err != nil {
			return Obj{}, err
		}
		c.Refills++
		s := &slab{page: page, pageIdx: idx, inPartial: true}
		s.free = make([]int16, c.perSlab)
		for i := range s.free {
			s.free[i] = int16(c.perSlab - 1 - i)
		}
		c.slabs[idx] = s
		c.partial = append(c.partial, s)
	}
	s := c.partial[len(c.partial)-1]
	oi := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.used++
	if len(s.free) == 0 {
		c.partial = c.partial[:len(c.partial)-1]
		s.inPartial = false
	}
	c.live++
	off := int(oi) * c.objSize
	return Obj{
		Data:    s.page[off : off+c.objSize : off+c.objSize],
		pageIdx: s.pageIdx,
		objIdx:  oi,
	}, nil
}

// Free returns an object to its slab; fully free slabs give their page
// back to the arena.
func (c *SlabCache) Free(o Obj) {
	c.Frees++
	s := c.slabs[o.pageIdx]
	if s == nil {
		panic("mem: Free of object from unknown slab")
	}
	s.free = append(s.free, o.objIdx)
	s.used--
	c.live--
	if s.used == 0 {
		// Return the page (Linux keeps some empty slabs cached; we
		// return eagerly, which only makes the skb path cheaper — a
		// conservative comparison).
		if s.inPartial {
			for i, p := range c.partial {
				if p == s {
					c.partial = append(c.partial[:i], c.partial[i+1:]...)
					break
				}
			}
		}
		delete(c.slabs, o.pageIdx)
		c.arena.FreePage(o.pageIdx)
		return
	}
	if !s.inPartial {
		s.inPartial = true
		c.partial = append(c.partial, s)
	}
}

// Live returns the number of outstanding objects.
func (c *SlabCache) Live() int { return c.live }

// ObjectsPerSlab returns how many objects fit a page.
func (c *SlabCache) ObjectsPerSlab() int { return c.perSlab }
