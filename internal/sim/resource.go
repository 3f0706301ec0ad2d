package sim

// Server is a FIFO single-server resource: a hardware unit (DMA engine,
// PCIe link, GPU copy engine) that handles one request at a time. Use
// charges the caller the service duration plus any queueing delay behind
// earlier requests. This serializing behaviour is what creates contention
// on shared links in the simulation.
type Server struct {
	env  *Env
	name string
	id   int // creation order within the env, for stable identity
	// freeAt is the virtual time at which the server finishes its
	// currently queued work.
	freeAt Time
	// booked and spans accumulate the service time and the services of
	// positive length reserved so far: what the hooks see, counted
	// whether or not hooks are installed. Service reserved ahead of now
	// is in booked but not yet in BusyTime.
	booked Duration
	spans  uint64
	// gaps holds, in time order, the idle stretches inside the queue
	// that a service starting later than the queue's end (ScheduleAt,
	// ScheduleChain) left, from the oldest that may still lie ahead of
	// now. Gaps wholly in the past are dropped when the next is added.
	gaps Ring[gap]
}

// gap is an idle stretch [start, end) inside a server's queue.
type gap struct{ start, end Time }

// NewServer creates a named FIFO server.
func NewServer(env *Env, name string) *Server {
	s := &Server{env: env, name: name, id: len(env.servers) + 1}
	env.servers = append(env.servers, s)
	return s
}

// Name returns the name given at creation.
func (s *Server) Name() string { return s.name }

// ID returns the server's creation-order identity within its Env,
// starting at 1. Names may repeat (two IOHs both have an "up" engine);
// IDs never do.
func (s *Server) ID() int { return s.id }

// queueEnd returns when a service reserved now could start at the
// earliest: the end of the queued work, or now if the server is idle.
func (s *Server) queueEnd() Time { return max(s.freeAt, s.env.now) }

// idle records that the server stays idle over [start, end), a stretch
// inside the queue that may lie ahead of now, and drops the recorded
// stretches that have passed.
func (s *Server) idle(start, end Time) {
	for s.gaps.Len() > 0 && s.gaps.Front().end <= s.env.now {
		s.gaps.PopFront()
	}
	s.gaps.PushBack(gap{start, end})
}

// reserve extends the server's queue by d starting no earlier than
// notBefore, updates busy accounting, notifies the env hooks, and
// returns the completion time.
func (s *Server) reserve(notBefore Time, d Duration) Time {
	start := s.queueEnd()
	if start < notBefore {
		s.idle(start, notBefore)
		start = notBefore
	}
	s.freeAt = start + Time(d)
	s.booked += d
	if d > 0 {
		s.spans++
		if s.env.hooks != nil {
			s.env.hooks.ServerBusy(s, start, s.freeAt)
		}
	}
	return s.freeAt
}

// Use blocks p until the server has completed all earlier requests and
// then for d of service time. It returns the total time p waited
// (queueing + service).
func (s *Server) Use(p *Proc, d Duration) Duration {
	p.mustBlock("Server.Use")
	start := s.env.now
	p.SleepUntil(s.reserve(start, d))
	return Duration(s.env.now - start)
}

// Schedule reserves d of service time without blocking and returns the
// completion time. Useful for fire-and-forget DMA where the initiator
// does not wait (e.g. NIC TX descriptors).
func (s *Server) Schedule(d Duration) Time {
	return s.reserve(s.env.now, d)
}

// Now returns the server's environment time (convenience for callers
// computing express completions).
func (s *Server) Now() Time { return s.env.now }

// ScheduleAt reserves d of service time that may not begin before
// notBefore (used to express pipeline dependencies: "this copy starts
// only after that kernel finishes"). Returns the completion time.
func (s *Server) ScheduleAt(notBefore Time, d Duration) Time {
	return s.reserve(notBefore, d)
}

// ScheduleRun reserves n back-to-back services of d each, exactly as n
// calls of Schedule(d) would, in one step, and returns when the first
// begins: service k occupies [start+k·d, start+(k+1)·d). It reports no
// span to the hooks; a caller that needs them (Env.Hooks) reports each
// service with Report, in the order its own calls would have.
func (s *Server) ScheduleRun(n int, d Duration) (start Time) {
	start = s.queueEnd()
	s.freeAt = start + Time(n)*Time(d)
	s.booked += Duration(n) * d
	if d > 0 {
		s.spans += uint64(n)
	}
	return start
}

// ScheduleChain reserves one service of d per element of at, the k-th
// beginning no earlier than at[k], exactly as len(at) calls of
// ScheduleAt(at[k], d) would, and overwrites at[k] with that service's
// completion. The queue is the max-plus recurrence
// free = max(free, at[k]) + d, run on a local and committed once; each
// wait for an at[k] is recorded as ScheduleAt records it. Like
// ScheduleRun it reports no span.
func (s *Server) ScheduleChain(at []Time, d Duration) {
	free := s.queueEnd()
	for k, t := range at {
		if free < t {
			s.idle(free, t)
			free = t
		}
		free += Time(d)
		at[k] = free
	}
	s.freeAt = free
	s.booked += Duration(len(at)) * d
	if d > 0 {
		s.spans += uint64(len(at))
	}
}

// Report tells the environment's hooks, if any, that s was busy over
// [start, end): the span a Schedule call reports itself, for services
// reserved by ScheduleRun or ScheduleChain.
func (s *Server) Report(start, end Time) {
	if s.env.hooks != nil && end > start {
		s.env.hooks.ServerBusy(s, start, end)
	}
}

// Backlog returns how far in the future the server's queue currently
// extends.
func (s *Server) Backlog() Duration {
	if s.freeAt <= s.env.now {
		return 0
	}
	return Duration(s.freeAt - s.env.now)
}

// BusyTime returns the service time the server has given up to now: a
// service in progress counts up to now, one booked ahead of now not at
// all, as a BusyClock counts an activity. The booked-ahead service is
// the backlog less the idle gaps still ahead inside it, so the server
// reads it without walking its reservations.
func (s *Server) BusyTime() Duration {
	now := s.env.now
	ahead := s.Backlog()
	for i := 0; ahead > 0 && i < s.gaps.Len(); i++ {
		if g := s.gaps.At(i); g.end > now {
			ahead -= Duration(g.end - max(g.start, now))
		}
	}
	return s.booked - ahead
}

// Spans returns how many services of positive length the server has
// been charged: one per Use, Schedule or ScheduleAt, n per ScheduleRun
// and one per ScheduleChain element, exactly the spans the hooks see
// when installed. Like the hooks, it counts a service when it is
// booked.
func (s *Server) Spans() uint64 { return s.spans }

// A BusyClock sums the virtual time a set of activities is open, each
// from its Begin to its End, however many overlap. Read mid-run, At
// includes the part of every open activity elapsed so far, so the
// difference of two readings is exactly the busy time between them:
// an activity that straddles either reading is clipped at it. The
// clock is three numbers, whatever the number of activities open.
type BusyClock struct {
	closed Duration
	open   int64
	starts Time // the sum of the open activities' Begin times
}

// Begin opens an activity at virtual time at.
func (b *BusyClock) Begin(at Time) {
	b.open++
	b.starts += at
}

// End closes the activity that Begin opened at begun.
func (b *BusyClock) End(begun, at Time) {
	b.open--
	b.starts -= begun
	b.closed += Duration(at - begun)
}

// At returns the busy time summed up to now.
func (b *BusyClock) At(now Time) Duration {
	return b.closed + Duration(Time(b.open)*now-b.starts)
}
