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
	// busy accumulates total service time, for utilization accounting.
	busy Duration
}

// NewServer creates a named FIFO server.
func NewServer(env *Env, name string) *Server {
	env.serverSeq++
	return &Server{env: env, name: name, id: env.serverSeq}
}

// Name returns the name given at creation.
func (s *Server) Name() string { return s.name }

// ID returns the server's creation-order identity within its Env,
// starting at 1. Names may repeat (two IOHs both have an "up" engine);
// IDs never do.
func (s *Server) ID() int { return s.id }

// reserve extends the server's queue by d starting no earlier than
// notBefore, updates busy accounting, notifies the env hooks, and
// returns the completion time.
func (s *Server) reserve(notBefore Time, d Duration) Time {
	if s.freeAt < s.env.now {
		s.freeAt = s.env.now
	}
	if s.freeAt < notBefore {
		s.freeAt = notBefore
	}
	start := s.freeAt
	s.freeAt += Time(d)
	s.busy += d
	if s.env.hooks != nil && d > 0 {
		s.env.hooks.ServerBusy(s, start, s.freeAt)
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

// Backlog returns how far in the future the server's queue currently
// extends.
func (s *Server) Backlog() Duration {
	if s.freeAt <= s.env.now {
		return 0
	}
	return Duration(s.freeAt - s.env.now)
}

// BusyTime returns the cumulative service time charged so far.
func (s *Server) BusyTime() Duration { return s.busy }

// Utilization returns busy time divided by elapsed time since t0.
func (s *Server) Utilization(t0 Time) float64 {
	elapsed := s.env.now - t0
	if elapsed <= 0 {
		return 0
	}
	return float64(s.busy) / float64(elapsed)
}

// Signal is a broadcast condition: processes Wait on it and a later Fire
// releases all current waiters at the same instant. Fires with no waiters
// are not remembered (it is a condition variable, not a latch).
type Signal struct {
	env     *Env
	waiters []*Proc
}

// NewSignal creates a signal in env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Wait blocks p until the next Fire.
func (s *Signal) Wait(p *Proc) {
	p.mustBlock("Signal.Wait")
	s.waiters = append(s.waiters, p)
	p.yield()
}

// Fire wakes every process currently waiting, in FIFO order (typed
// wakeups: no closure per waiter).
func (s *Signal) Fire() {
	ws := s.waiters
	s.waiters = s.waiters[:0]
	for _, w := range ws {
		s.env.wake(w, s.env.now)
	}
}

// Waiters returns the number of processes currently blocked on the signal.
func (s *Signal) Waiters() int { return len(s.waiters) }
