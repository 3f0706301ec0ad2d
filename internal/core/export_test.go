package core

import "packetshader/internal/sim"

// OnChunkDone has fn see the stamps of every chunk r completes.
func OnChunkDone(r *Router, fn func(stamps []sim.Time)) {
	r.chunkDone = func(c *Chunk) { fn(c.stamps[:]) }
}
