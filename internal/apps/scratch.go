package apps

import "packetshader/internal/core"

// chunkState returns the app's per-chunk state of type T, allocating it
// the first time the chunk is seen. Chunks recycled by the core free
// list keep their State, so per-chunk app scratch reaches steady state
// with no allocation; every field holds an unrelated earlier chunk's
// values until PreShade resets it (slices through scratch).
func chunkState[T any](c *core.Chunk) *T {
	st, ok := c.State.(*T)
	if !ok {
		st = new(T)
		c.State = st
	}
	return st
}

// scratch resizes s to n elements, all zero, reusing the backing array
// when it is large enough.
func scratch[T any](s []T, n int) []T {
	if n <= cap(s) {
		s = s[:n]
		var zero T
		for i := range s {
			s[i] = zero
		}
		return s
	}
	return make([]T, n)
}
