package mem

import "packetshader/internal/model"

// Skb mirrors the two-buffer Linux packet representation (§4.1): a
// metadata object (208 bytes in Linux 2.6.28) plus a data buffer, both
// slab-allocated per packet.
type Skb struct {
	Meta Obj
	Data Obj
}

// SkbAllocator is the legacy per-packet allocation path whose costs
// Table 3 breaks down. Every RX packet performs: skb alloc (wrapper +
// slab + possibly page allocator), data-buffer alloc, metadata
// initialization, and the matching frees.
type SkbAllocator struct {
	metaCache *SlabCache
	dataCache *SlabCache
	// InitOps counts metadata initializations (the memset of 208B).
	InitOps uint64
}

// NewSkbAllocator builds the skb path over an arena of nPages pages.
func NewSkbAllocator(arena *Arena) *SkbAllocator {
	return &SkbAllocator{
		metaCache: NewSlabCache(arena, model.SkbMetadataBytes),
		dataCache: NewSlabCache(arena, model.HugeCellDataBytes),
	}
}

// Alloc allocates and initializes an skb; its data buffer holds a packet
// of any size.
func (a *SkbAllocator) Alloc() (*Skb, error) {
	meta, err := a.metaCache.Alloc()
	if err != nil {
		return nil, err
	}
	data, err := a.dataCache.Alloc()
	if err != nil {
		a.metaCache.Free(meta)
		return nil, err
	}
	// skb initialization: Linux memsets and links the whole 208-byte
	// metadata for every packet (Table 3: 4.9%).
	clear(meta.Data)
	a.InitOps++
	return &Skb{Meta: meta, Data: data}, nil
}

// Free releases both buffers.
func (a *SkbAllocator) Free(s *Skb) {
	a.metaCache.Free(s.Meta)
	a.dataCache.Free(s.Data)
}

// SlabOps returns total slab operations performed (allocs+frees across
// both caches) and page-allocator refill operations.
func (a *SkbAllocator) SlabOps() (slabOps, pageOps uint64) {
	slabOps = a.metaCache.Allocs + a.metaCache.Frees +
		a.dataCache.Allocs + a.dataCache.Frees
	pageOps = a.metaCache.Refills + a.dataCache.Refills
	return
}

// Live returns outstanding skbs.
func (a *SkbAllocator) Live() int { return a.metaCache.Live() }
