package route

import (
	"sort"
	"sync/atomic"
)

// FIB is a forwarding information base with the double-buffered update
// scheme discussed in §7: the data path reads one generation while the
// control plane prepares the next, then an atomic swap publishes it.
// Readers never observe a partially updated table.
type FIB[T any] struct {
	gens   [2]atomic.Pointer[T]
	active atomic.Int32
}

// NewFIB creates a FIB whose active generation is initial.
func NewFIB[T any](initial *T) *FIB[T] {
	f := &FIB[T]{}
	f.gens[0].Store(initial)
	return f
}

// Active returns the generation the data path should use.
func (f *FIB[T]) Active() *T {
	return f.gens[f.active.Load()].Load()
}

// Publish installs next as the new active generation and returns the
// previous one (which the control plane may recycle once no reader can
// still hold it — in the simulation, after the current chunk drains).
func (f *FIB[T]) Publish(next *T) *T {
	cur := f.active.Load()
	other := 1 - cur
	f.gens[other].Store(next)
	f.active.Store(other)
	return f.gens[cur].Load()
}

// ---------------------------------------------------------------------------
// RIB: the control-plane side holding the full route set and producing
// generations for the FIB.
// ---------------------------------------------------------------------------

// RIB is a simple IPv4 routing information base keyed by prefix.
type RIB struct {
	routes map[Prefix]uint16
}

// NewRIB creates an empty RIB.
func NewRIB() *RIB { return &RIB{routes: make(map[Prefix]uint16)} }

// Add inserts or replaces a route.
func (r *RIB) Add(p Prefix, nextHop uint16) { r.routes[p] = nextHop }

// Remove deletes a route; it reports whether the prefix was present.
func (r *RIB) Remove(p Prefix) bool {
	_, ok := r.routes[p]
	delete(r.routes, p)
	return ok
}

// Len returns the number of routes.
func (r *RIB) Len() int { return len(r.routes) }

// Entries returns the route set sorted by (address, length) for
// deterministic table builds.
func (r *RIB) Entries() []Entry {
	out := make([]Entry, 0, len(r.routes))
	for p, h := range r.routes {
		out = append(out, Entry{Prefix: p, NextHop: h})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix.Addr != out[j].Prefix.Addr {
			return out[i].Prefix.Addr < out[j].Prefix.Addr
		}
		return out[i].Prefix.Len < out[j].Prefix.Len
	})
	return out
}
