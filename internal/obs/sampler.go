package obs

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"packetshader/internal/sim"
)

// ServerSampler implements sim.Hooks: every reservation on every
// sim.Server (PCIe links, IOH engines, GPU copy/exec engines, NIC wire
// serializers) becomes a span on a per-resource trace track, created on
// the server's first span. A span is recorded when it is booked; clipped
// at any instant, the spans tile the server's busy time up to it.
// Occupancy totals are the servers' own (sim.Server.BusyTime and Spans,
// written by WriteUtil); the sampler exists for the trace.
//
// Install with env.SetHooks(obs.NewServerSampler(tracer)); a nil tracer
// records nothing, like every Tracer method on nil.
type ServerSampler struct {
	tr     *Tracer
	tracks []TrackID // by server ID - 1; 0 until the server's first span
}

// NewServerSampler creates a sampler recording spans into tr.
func NewServerSampler(tr *Tracer) *ServerSampler { return &ServerSampler{tr: tr} }

// ServerBusy implements sim.Hooks.
func (h *ServerSampler) ServerBusy(s *sim.Server, start, end sim.Time) {
	i := s.ID() - 1
	if i >= len(h.tracks) {
		h.tracks = append(h.tracks, make([]TrackID, i+1-len(h.tracks))...)
	}
	if h.tracks[i] == 0 {
		h.tracks[i] = h.tr.Track("resources", fmt.Sprintf("%s#%d", s.Name(), s.ID()))
	}
	h.tr.SpanUntil(h.tracks[i], s.Name(), start, end)
}

// WriteUtil writes the occupancy of every server of env that has served
// at least one span, sorted by (name, id), one line per server:
//
//	util <name>#<id> busy=<us> spans=<n> occ=<permille>
//
// Occupancy is busy/now in permille, integer arithmetic only, so it
// covers the whole run from virtual time zero. Busy time counts service
// up to now only, so occupancy is at most 1000.
func WriteUtil(w io.Writer, env *sim.Env) error {
	ew := &errWriter{w: w}
	// Servers come in ID order, so a stable sort by name sorts by (name, id).
	servers := slices.Clone(env.Servers())
	slices.SortStableFunc(servers, func(a, b *sim.Server) int { return strings.Compare(a.Name(), b.Name()) })
	elapsed := int64(env.Now())
	for _, s := range servers {
		if s.Spans() == 0 {
			continue
		}
		occ := int64(0)
		if elapsed > 0 {
			occ = int64(s.BusyTime()) * 1000 / elapsed
		}
		fmt.Fprintf(ew, "util %s#%d busy=%sus spans=%d occ=%d\n",
			s.Name(), s.ID(), micros(int64(s.BusyTime())), s.Spans(), occ)
	}
	return ew.err
}
