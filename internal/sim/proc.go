package sim

// Proc is a simulated process. It comes in two forms. A goroutine
// process (Env.Go) advances virtual time by sleeping and by blocking on
// queues and servers, anywhere in its body. A task (Env.Task)
// has no goroutine: the event loop calls its step function inline at
// each wakeup, and the step arms the next wakeup (WakeAfter,
// Queue.Await) and returns. Exactly one process (or the scheduler loop
// in Env.drive) runs at any instant, so simulations are deterministic
// and need no locking.
type Proc struct {
	env    *Env
	name   string
	resume chan struct{}
	step   func(p *Proc) // non-nil marks a task
	spawn  uint64        // 1-based start order within env, Go and Task alike
	done   bool
	killed bool // terminated by Env.Close (written only on p's goroutine)
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go starts fn as a new process, scheduled to begin at the current virtual
// time (after already-queued events at the same instant).
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Env.Go on closed Env")
	}
	e.spawns++
	p := &Proc{env: e, name: name, resume: make(chan struct{}), spawn: e.spawns}
	e.procs = append(e.procs, p)
	go func() {
		// p.killed is written only on this goroutine (here or in
		// checkClosed), so the deferred read below never races with the
		// rest of the simulation — unlike e.closed, which a dying
		// goroutine must not read after handing off the control token.
		defer func() {
			if p.killed {
				e.closeCh <- struct{}{}
			}
		}()
		<-p.resume // wait for first scheduling (or Close)
		if e.closed {
			p.killed = true
			p.done = true
			return
		}
		fn(p)
		p.done = true
		// This goroutine still holds the control token: keep driving the
		// event loop until control is handed to the next runnable process
		// (or the run terminates), then exit.
		e.drive(p, true)
	}()
	e.wake(p, e.now)
	return p
}

// Task starts step as a task: a process without a goroutine. Its first
// wakeup is scheduled exactly as Go schedules a process's start; at
// that and every later wakeup Env.drive calls step inline, in scheduler
// context. step must not block: it arms at most one next wakeup with
// the non-yielding halves of the blocking operations — WakeAfter and
// WakeAt for Sleep and SleepUntil, Queue.Await for Queue.Get,
// Queue.Offer for Queue.Put — and returns, keeping what it needs
// across wakeups in its own state. A step that arms nothing leaves the
// task parked for good, which is how a task ends. A task issues the
// same Env.schedule calls as the goroutine process it replaces, so the
// two forms are interchangeable event for event, and they mix freely in
// one Env; what a task saves is the goroutine switch per wakeup.
func (e *Env) Task(name string, step func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Env.Task on closed Env")
	}
	if step == nil {
		panic("sim: Env.Task with a nil step")
	}
	e.spawns++
	p := &Proc{env: e, name: name, step: step, spawn: e.spawns}
	e.wake(p, e.now)
	return p
}

// mustBlock panics if p is a task, whose step runs inside the event
// loop and has no goroutine to park, or if an At/After callback or a
// task step is running: a blocking call there, at any depth, would
// drive the event loop nested inside it.
func (p *Proc) mustBlock(call string) {
	if p.step != nil {
		panic("sim: " + call + " on task " + p.name + ": a task's step must not block (arm the next step with WakeAfter or Queue.Await)")
	}
	if p.env.inSched {
		panic("sim: " + call + " on " + p.name + " from scheduler context: an At/After callback or a task step must not block (wake a process instead)")
	}
}

// mustArm panics if p is a goroutine process: arming a wakeup without
// yielding would resume it at a point where it is not parked.
func (p *Proc) mustArm(call string) {
	if p.step == nil {
		panic("sim: " + call + " on goroutine process " + p.name + ": only a task arms its wakeups (use Sleep or Queue.Get)")
	}
}

// WakeAfter is the task half of Sleep: it schedules task p's next step
// d from now (negative d counts as zero) and returns.
func (p *Proc) WakeAfter(d Duration) {
	p.mustArm("Proc.WakeAfter")
	if d < 0 {
		d = 0
	}
	p.env.wake(p, p.env.now+Time(d))
}

// WakeAt is the task half of SleepUntil: it schedules task p's next
// step at absolute time t (now if t is in the past) and returns.
func (p *Proc) WakeAt(t Time) {
	p.mustArm("Proc.WakeAt")
	p.env.wake(p, t)
}

// yield returns control to the event loop and blocks until this
// process's next wakeup. If that wakeup is the next event, the process
// continues immediately — same goroutine, no channel operation.
func (p *Proc) yield() { p.env.drive(p, false) }

// Sleep advances the process by d of virtual time. Negative or zero
// durations still yield (allowing same-instant events to interleave
// deterministically in FIFO order).
func (p *Proc) Sleep(d Duration) {
	p.mustBlock("Proc.Sleep")
	if d < 0 {
		d = 0
	}
	env := p.env
	env.wake(p, env.now+Time(d))
	p.yield()
}

// SleepUntil sleeps until absolute time t (no-op if t is in the past,
// but still yields).
func (p *Proc) SleepUntil(t Time) {
	p.mustBlock("Proc.SleepUntil")
	d := Duration(t - p.env.now)
	p.Sleep(d)
}
