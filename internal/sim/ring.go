package sim

// Ring is a growable FIFO ring buffer (deque). PushBack and PopFront are
// amortized O(1) and reuse one backing array forever, unlike the
// shift-by-reslice idiom (`items = items[1:]`) it replaces, which walks
// the backing array forward so every refill reallocates. PopFront zeroes
// the vacated slot, so popped pointer elements become collectable
// immediately instead of staying reachable through the backing array.
//
// The zero value is an empty ring. Ring is not safe for concurrent use;
// simulation code needs no locking because exactly one process runs at a
// time.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of buffered elements.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the current backing-array capacity (for tests asserting
// that drained rings do not grow without bound).
func (r *Ring[T]) Cap() int { return len(r.buf) }

// grow doubles the backing array (capacity is always a power of two, so
// index masking stays a single AND).
func (r *Ring[T]) grow() {
	c := len(r.buf) * 2
	if c < 8 {
		c = 8
	}
	buf := make([]T, c)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

// PushBack appends v at the tail.
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PopFront removes and returns the head element, zeroing its slot.
// It panics on an empty ring.
func (r *Ring[T]) PopFront() T {
	if r.n == 0 {
		panic("sim: PopFront on empty Ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Front returns the head element without removing it. It panics on an
// empty ring.
func (r *Ring[T]) Front() T {
	if r.n == 0 {
		panic("sim: Front on empty Ring")
	}
	return r.buf[r.head]
}
