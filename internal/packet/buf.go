package packet

import (
	"math/bits"
	"unsafe"

	"packetshader/internal/sim"
)

// Buf is the unit of packet exchange inside the simulation: frame bytes
// plus receive metadata. It plays the role of the huge-packet-buffer cell
// plus its 8-byte compact metadata (§4.2); the simulation-only fields
// (timestamps) exist for measurement. A Buf is 64 bytes on 64-bit
// hosts, one cache line in its slab.
type Buf struct {
	// Data is the frame (FCS excluded, as in the paper's size metric).
	// It is always a prefix of the Buf's data cell, so the cell is
	// Data[:cap(Data)]: whoever re-slices Data keeps its start and its
	// capacity.
	Data []byte
	// Port and Queue identify where the packet was received.
	Port  int
	Queue int
	// GenAt is the generator's send timestamp (for round-trip latency).
	GenAt sim.Time
	pool  *BufPool
	// The pad keeps a Buf one 64-byte line on 64-bit hosts.
	_ [8]byte
}

// Size returns the frame length in bytes.
func (b *Buf) Size() int { return len(b.Data) }

// Reset re-slices Data to the first n bytes of the Buf's cell. A frame
// that outgrows its cell moves to a larger one, bytes preserved: cell
// capacity is a performance hint, never a truncation.
func (b *Buf) Reset(n int) {
	if n > cap(b.Data) {
		b.promote(n)
	}
	b.Data = b.Data[:n]
}

// promote swaps b's cell for one of at least n bytes, carrying the
// current frame over and returning the old cell to its free list.
func (b *Buf) promote(n int) {
	if b.pool == nil {
		cell := make([]byte, n)
		b.Data = cell[:copy(cell, b.Data)]
		return
	}
	donor := b.pool.get(classOf(n))
	cell := donor.Data[:len(b.Data)]
	copy(cell, b.Data)
	b.Data, donor.Data = cell, b.Data
	b.pool.put(donor)
}

// Release returns the Buf to its pool (no-op for pool-less Bufs).
func (b *Buf) Release() {
	if b.pool != nil {
		b.pool.put(b)
	}
}

// The pool is the simulator's own huge packet buffer (§4.2): Buf
// structs and data cells are carved from contiguous slabs, and cells
// come in power-of-two size classes from minCell up, so the in-flight
// set of small frames is dense in the host's caches instead of strided
// over 2 KiB-aligned, separately allocated cells. A slab is at most
// slabBytes (one cell when the cell is larger), which bounds what a
// part-used slab can add to a run's allocation volume. A slab of that
// size is page-aligned, so every 64-byte Buf sits on one cache line.
const (
	minCellShift = 8
	minCell      = 1 << minCellShift
	// numClasses covers cells up to 2 GiB, past any frame.
	numClasses  = 32 - minCellShift
	slabBytes   = 64 << 10
	bufsPerSlab = slabBytes / int(unsafe.Sizeof(Buf{}))
	// cellHeadroom is the growth room Get adds to the requested size
	// when it picks a class: encapsulation (ESP tunnel mode, a pushed
	// VLAN tag) then stays in the cell it was given.
	cellHeadroom = 128
)

// classOf returns the smallest class whose cell holds n bytes; class c
// has cells of minCell<<c bytes.
func classOf(n int) int {
	if n <= minCell {
		return 0
	}
	return bits.Len(uint(n-1) >> minCellShift)
}

// cellClass is one size class: the free Bufs that own a cell of this
// size, and the uncarved remainder of the class's newest data slab.
type cellClass struct {
	free  []*Buf
	cells []byte
}

// BufPool recycles Bufs: the hot path performs no per-packet allocation
// once the pool is warm.
type BufPool struct {
	// maxClass caps the headroom: Get hands out a cell above this class
	// only to a frame that does not fit it.
	maxClass int
	classes  [numClasses]cellClass
	// bufs is the uncarved remainder of the newest Buf slab.
	bufs []Buf
	// Allocs counts pool misses (Bufs carved because the class's free
	// list was empty), for tests.
	Allocs int
}

// NewBufPool creates a pool whose largest regular cell holds cellBytes.
func NewBufPool(cellBytes int) *BufPool {
	return &BufPool{maxClass: classOf(cellBytes)}
}

// Get returns a Buf with Data sized to n bytes.
func (p *BufPool) Get(n int) *Buf {
	c := classOf(n + cellHeadroom)
	if c > p.maxClass {
		c = max(p.maxClass, classOf(n))
	}
	b := p.get(c)
	b.Port, b.Queue, b.GenAt = 0, 0, 0
	b.Data = b.Data[:n]
	return b
}

// get pops a free Buf of class c, carving a new one on a miss.
func (p *BufPool) get(c int) *Buf {
	cl := &p.classes[c]
	if k := len(cl.free) - 1; k >= 0 {
		b := cl.free[k]
		cl.free = cl.free[:k]
		return b
	}
	p.Allocs++
	if len(p.bufs) == 0 {
		p.bufs = make([]Buf, bufsPerSlab)
	}
	b := &p.bufs[0]
	p.bufs = p.bufs[1:]
	cell := minCell << c
	if len(cl.cells) < cell {
		cl.cells = make([]byte, max(cell, slabBytes))
	}
	b.Data, cl.cells = cl.cells[:0:cell], cl.cells[cell:]
	b.pool = p
	return b
}

func (p *BufPool) put(b *Buf) {
	cl := &p.classes[classOf(cap(b.Data))]
	cl.free = append(cl.free, b)
}

// FreeCount returns the number of pooled Bufs (for tests).
func (p *BufPool) FreeCount() int {
	n := 0
	for i := range p.classes {
		n += len(p.classes[i].free)
	}
	return n
}
