// Package mem implements the Linux-style packet-buffer path the paper
// measures and then replaces (§4.1-4.2): a Bonwick slab allocator over
// a page arena, allocating an skb metadata object plus a data buffer
// for every packet. Operation counts are exposed so the Table 3
// experiment can charge modelled cycles per allocator operation. The
// replacement, the huge packet buffer, is packet.BufPool.
package mem

import "errors"

// PageSize matches the x86 page the kernel page allocator hands out.
const PageSize = 4096

// ErrOutOfMemory is returned when the arena is exhausted.
var ErrOutOfMemory = errors.New("mem: arena exhausted")

// Arena is a fixed-capacity page allocator (the "underlying page
// allocator" of Table 3's memory-subsystem bin).
type Arena struct {
	backing []byte
	free    []int32 // LIFO freelist of page indexes
	nPages  int
}

// NewArena creates an arena of n pages.
func NewArena(n int) *Arena {
	a := &Arena{
		backing: make([]byte, n*PageSize),
		free:    make([]int32, n),
		nPages:  n,
	}
	for i := range a.free {
		// LIFO: lowest page on top, matching kernel cache-warm reuse.
		a.free[i] = int32(n - 1 - i)
	}
	return a
}

// AllocPage returns one page, or ErrOutOfMemory.
func (a *Arena) AllocPage() ([]byte, int32, error) {
	if len(a.free) == 0 {
		return nil, -1, ErrOutOfMemory
	}
	idx := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	off := int(idx) * PageSize
	return a.backing[off : off+PageSize : off+PageSize], idx, nil
}

// FreePage returns page idx to the freelist.
func (a *Arena) FreePage(idx int32) {
	a.free = append(a.free, idx)
}

// FreePages returns the number of available pages.
func (a *Arena) FreePages() int { return len(a.free) }

// TotalPages returns the arena capacity.
func (a *Arena) TotalPages() int { return a.nPages }
