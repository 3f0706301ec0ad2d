// Package sim is a deterministic, process-oriented discrete-event
// simulation engine. It provides a virtual clock, processes run one at a
// time (SimPy-style), FIFO queues and serializing servers for bandwidth
// links. The program's processes are tasks (Env.Task): step functions
// the event loop calls inline, which never block.
//
// All PacketShader hardware models (NICs, PCIe links, GPU, CPU cores) run
// as sim processes, so every throughput and latency number reported by the
// benchmark harness is measured in virtual hardware time and is therefore
// independent of the host machine's speed and of Go's garbage collector.
//
// The engine is built for an allocation-free steady state: events are
// typed values (a process wakeup carries the *Proc directly; closures
// exist only for true callbacks) stored by value in two reused arrays —
// a binary min-heap (events.go) for future events and a FIFO ring for
// same-instant wakeups — so wakeups and queue hand-offs allocate
// nothing, same-instant wakeups skip the heap entirely, and a task's
// wakeup is a call of its step.
//
// Busy time has one rule: an activity counts as it runs, up to the
// instant of the reading. A Server's BusyTime leaves out the service it
// has booked ahead of now, and a BusyClock counts an open activity up to
// now, so the difference of two readings of either is the busy time
// between them, never more than the time that passed. A Server's Spans
// and hooks see each service when it is booked.
package sim

import (
	"fmt"
	"math"
	"runtime"
)

// Time is an absolute point on the virtual clock, in picoseconds. The
// picosecond granularity keeps sub-nanosecond events (one 64B frame lasts
// 6.7ns on a 10GbE link) exact while int64 still covers over 100 days of
// simulated time.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds returns d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds returns d as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// DurationFromSeconds converts seconds to a Duration, rounding to the
// nearest picosecond with ties away from zero. (A naive `+0.5` then
// truncate rounds negative inputs toward +inf: -1.5ps would become
// -1ps instead of -2ps, and -0.7ps would become 0.)
func DurationFromSeconds(s float64) Duration {
	return Duration(math.Round(s * float64(Second)))
}

func (t Time) String() string {
	return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
}

// event is one scheduled occurrence, stored by value. p != nil is a
// typed process wakeup (Sleep, queue hand-off, and their task
// halves): no closure is built and nothing is allocated. fn is reserved
// for true scheduler callbacks registered through At/After.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among simultaneous events
	p   *Proc
	fn  func()
}

// Hooks receives simulation-level trace callbacks. Implementations must
// not block or schedule events: hooks run synchronously inside resource
// operations, possibly in scheduler context, and exist purely to record.
// internal/obs provides the standard implementation.
type Hooks interface {
	// ServerBusy reports one reservation occupying server s over the
	// half-open virtual-time interval [start, end), when it is booked.
	// The intervals tile the server's busy time exactly: their number
	// equals Server.Spans, and their total clipped at now equals
	// Server.BusyTime.
	ServerBusy(s *Server, start, end Time)
}

// Env is a simulation environment: a virtual clock plus an event queue.
// The zero value is not usable; create one with NewEnv.
type Env struct {
	now Time
	// events holds future events in a min-heap over (at, seq); imm
	// holds events scheduled at the current instant, which run in FIFO
	// order without a heap round-trip. The split preserves the global
	// (at, seq) execution order exactly: a heap event at time T was
	// necessarily scheduled before the clock reached T (same-instant
	// schedules go to imm), so its seq is smaller than that of every
	// imm event, and next() runs it first.
	events  eventHeap
	imm     Ring[event]
	seq     uint64
	until   Time          // run horizon while running (0 = none)
	mainCh  chan struct{} // returns control to the Run caller at termination
	closeCh chan struct{} // terminated processes acknowledge Close here
	procs   []*Proc       // every started process, in Go order (for Close)
	running bool
	closed  bool
	inSched bool // an At/After callback or a task step is running

	hooks   Hooks
	servers []*Server // in creation order; a server's ID is its index + 1
	spawns  uint64    // processes started, Go and Task alike (Proc.spawn)
	stats   Stats
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{mainCh: make(chan struct{}), closeCh: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// SetHooks installs h as the environment's trace hooks (nil disables
// them). When no hooks are installed the per-reservation cost is a
// single nil check.
func (e *Env) SetHooks(h Hooks) { e.hooks = h }

// Hooks returns the installed trace hooks, or nil.
func (e *Env) Hooks() Hooks { return e.hooks }

// Servers returns every server created in e, in creation order. The
// slice is e's own: callers must not modify it.
func (e *Env) Servers() []*Server { return e.servers }

// schedule enqueues a typed event at absolute time at (clamped to now).
func (e *Env) schedule(at Time, p *Proc, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := event{at: at, seq: e.seq, p: p, fn: fn}
	if at == e.now {
		e.imm.PushBack(ev)
	} else {
		e.events.push(ev)
		e.stats.Pushes++
	}
	if n := len(e.events) + e.imm.Len(); n > e.stats.PeakPending {
		e.stats.PeakPending = n
	}
}

// wake schedules a typed wakeup for p at absolute time at. This is the
// allocation-free path used by Sleep and queues.
func (e *Env) wake(p *Proc, at Time) { e.schedule(at, p, nil) }

// At schedules fn to run at absolute virtual time t (clamped to now).
// fn runs in scheduler context and must not block (a blocking call
// panics); to perform blocking work, have it wake a process instead.
func (e *Env) At(t Time, fn func()) { e.schedule(t, nil, fn) }

// After schedules fn to run d from now.
func (e *Env) After(d Duration, fn func()) { e.schedule(e.now+Time(d), nil, fn) }

// next pops the earliest pending event in exact (at, seq) order, or
// reports termination (false) when the queue is empty or the next event
// lies beyond the run horizon. imm events are always at the current
// instant (time cannot advance past them), so they never exceed the
// horizon; heap events at the current instant carry smaller seqs than
// imm ones and run first.
func (e *Env) next() (event, bool) {
	at, ok := e.events.peekAt()
	if !(ok && at == e.now) && e.imm.Len() > 0 {
		return e.imm.PopFront(), true
	}
	if !ok {
		return event{}, false
	}
	if e.until > 0 && at > e.until {
		e.now = e.until
		return event{}, false
	}
	e.stats.Pops++
	return e.events.popMin(), true
}

// NextEventAt returns the absolute time of the earliest pending event,
// or false if nothing is scheduled. The partition scheduler (World) uses
// it to size windows and skip idle stretches of virtual time; the peek
// reads the heap's root and changes nothing, so it is safe between
// windows when still-earlier arrivals may yet be scheduled over links.
func (e *Env) NextEventAt() (Time, bool) {
	if e.imm.Len() > 0 {
		return e.now, true
	}
	return e.events.peekAt()
}

// Run executes events until the queue drains or the clock passes until
// (until <= 0 means run to completion). It returns the time of the last
// executed event. Processes still blocked on queues when the event queue
// drains are simply abandoned (their goroutines stay parked; a later Run
// that reaches their wakeups resumes them, and Close releases them).
func (e *Env) Run(until Time) Time {
	if e.closed {
		panic("sim: Env.Run on closed Env")
	}
	if e.running {
		panic("sim: Env.Run re-entered")
	}
	e.running = true
	defer func() { e.running, e.inSched = false, false }()
	e.until = until
	e.drive(nil, false)
	return e.now
}

// drive executes events in the calling goroutine until either the
// calling process's own wakeup is reached (self != nil) or the run
// terminates. It is the single scheduling primitive: the Run caller
// (self == nil), yielding processes, and ending processes (ending true)
// all drive the loop themselves, so control passes directly from one
// process to the next with exactly one channel operation per context
// switch — there is no scheduler goroutine to bounce through, and a
// process whose own wakeup comes next resumes with no channel operation
// at all. A task's wakeup is no context switch either: whoever drives
// calls its step and carries on.
func (e *Env) drive(self *Proc, ending bool) {
	for {
		ev, ok := e.next()
		if !ok {
			// The run is over. The Run caller returns; anyone else hands
			// the control token back to it first.
			if self == nil {
				return
			}
			e.mainCh <- struct{}{}
			if !ending {
				// Park until a later Run reaches our wakeup — or Close
				// terminates us.
				<-self.resume
				e.checkClosed(self)
			}
			return
		}
		e.now = ev.at
		if ev.p == nil {
			e.stats.Callbacks++
			e.fold(&ev, kindCallback)
			e.inSched = true
			ev.fn() // scheduler-context callback
			e.inSched = false
			continue
		}
		if ev.p.step != nil {
			e.stats.TaskSteps++
			e.fold(&ev, kindTaskStep)
			e.inSched = true
			ev.p.step(ev.p) // task: one step, inline
			e.inSched = false
			continue
		}
		if ev.p == self && !ending {
			e.stats.SelfResumes++
			e.fold(&ev, kindSelfResume)
			return // our own wakeup: resume user code directly
		}
		// Hand control to the woken process; then this goroutine parks
		// (yield), exits (ending), or awaits termination (Run caller).
		e.stats.HandOffs++
		e.fold(&ev, kindHandOff)
		ev.p.resume <- struct{}{}
		if ending {
			return
		}
		if self == nil {
			<-e.mainCh
			return
		}
		<-self.resume
		e.checkClosed(self)
		return
	}
}

// checkClosed runs on a process's own goroutine immediately after it is
// resumed at a park point. If the environment has been closed, the resume
// came from Close: the process terminates here via runtime.Goexit, which
// runs its deferred functions (they must not re-enter the simulation) and
// then the wrapper in Go acknowledges on closeCh.
func (e *Env) checkClosed(p *Proc) {
	if !e.closed {
		return
	}
	p.killed = true
	p.done = true
	runtime.Goexit()
}

// Close terminates every process still parked in the environment —
// processes abandoned mid-block when the event queue drained — releasing
// their goroutines. Without it, each Env leaks one goroutine per blocked
// process for the life of the host program, which adds up across
// thousands of sweep-point environments.
//
// Close must not be called while Run is in progress. It is idempotent;
// after the first call the environment is dead (Run and Go panic).
// Terminated processes unwind via runtime.Goexit, so their deferred
// functions run, but those functions must not re-enter the simulation.
// Processes are released in creation order, one at a time, so teardown is
// as deterministic as the run itself.
func (e *Env) Close() {
	if e.running {
		panic("sim: Env.Close during Run")
	}
	if e.closed {
		return
	}
	e.closed = true
	for _, p := range e.procs {
		if p.done {
			continue
		}
		p.resume <- struct{}{}
		<-e.closeCh
	}
	e.procs = nil
	e.events.reset()
	e.imm = Ring[event]{}
}
