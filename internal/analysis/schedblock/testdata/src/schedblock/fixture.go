// Fixture for the schedblock analyzer: Env.At/Env.After callbacks and
// Env.Task steps run in scheduler context and must not call blocking sim
// operations.
package schedblock

import "packetshader/internal/sim"

func bad(env *sim.Env, p *sim.Proc, q *sim.Queue[int], srv *sim.Server, sig *sim.Signal) {
	env.At(0, func() {
		p.Sleep(3 * sim.Nanosecond) // want `sim\.Sleep blocks, but Env\.At callbacks run in scheduler context`
	})
	env.After(5*sim.Microsecond, func() {
		_ = q.Get(p)               // want `sim\.Get blocks, but Env\.After callbacks`
		q.Put(p, 1)                // want `sim\.Put blocks, but Env\.After callbacks`
		srv.Use(p, sim.Nanosecond) // want `sim\.Use blocks, but Env\.After callbacks`
		sig.Wait(p)                // want `sim\.Wait blocks, but Env\.After callbacks`
		p.SleepUntil(0)            // want `sim\.SleepUntil blocks, but Env\.After callbacks`
	})
	env.After(sim.Nanosecond, func() {
		env.Run(0) // want `sim\.Run blocks, but Env\.After callbacks`
	})
}

func good(env *sim.Env, q *sim.Queue[int], sig *sim.Signal) {
	env.After(sim.Microsecond, func() {
		_ = q.TryPut(7) // non-blocking variants are the sanctioned pattern
		_, _ = q.TryGet()
		sig.Fire()
		env.At(env.Now(), func() {}) // rescheduling is fine
		env.Go("worker", func(p *sim.Proc) {
			p.Sleep(sim.Nanosecond) // a spawned process may block
		})
	})
	// Blocking outside a callback is the normal process style.
	env.Go("proc", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		q.Put(p, 2)
	})
}

// A callback given by name is checked like a literal.
func namedCallback() {
	var p *sim.Proc
	p.Sleep(sim.Nanosecond) // want `sim\.Sleep blocks, but Env\.After callbacks`
}

func badNamed(env *sim.Env) {
	env.After(sim.Nanosecond, namedCallback)
}

// ---- tasks: the step runs inline in the event loop ----

func badTask(env *sim.Env, q *sim.Queue[int], srv *sim.Server, sig *sim.Signal) {
	env.Task("lit", func(p *sim.Proc) {
		p.Sleep(sim.Nanosecond)    // want `sim\.Sleep blocks, but a task's step runs inline in the event loop`
		p.SleepUntil(0)            // want `sim\.SleepUntil blocks, but a task's step`
		_ = q.Get(p)               // want `sim\.Get blocks, but a task's step`
		q.Put(p, 1)                // want `sim\.Put blocks, but a task's step`
		srv.Use(p, sim.Nanosecond) // want `sim\.Use blocks, but a task's step`
		sig.Wait(p)                // want `sim\.Wait blocks, but a task's step`
	})
}

type node struct{ q *sim.Queue[int] }

// step is spawned as a method value below.
func (n *node) step(p *sim.Proc) {
	_ = n.q.Get(p) // want `sim\.Get blocks, but a task's step`
}

// body is spawned as a goroutine process: blocking is its job.
func (n *node) body(p *sim.Proc) {
	_ = n.q.Get(p)
}

func plainStep(p *sim.Proc) {
	p.Sleep(sim.Nanosecond) // want `sim\.Sleep blocks, but a task's step`
}

func badNamedTask(env *sim.Env, n *node) {
	env.Task("method", n.step)
	env.Task("func", plainStep)
	env.Go("proc", n.body)
}

func goodTask(env *sim.Env, q *sim.Queue[int], sig *sim.Signal) {
	env.Task("fwd", func(p *sim.Proc) {
		if _, ok := q.Await(p); !ok { // the task halves arm and return
			return
		}
		_ = q.TryPut(7)
		sig.Fire()
		p.WakeAfter(sim.Nanosecond)
		env.Go("helper", func(hp *sim.Proc) {
			hp.Sleep(sim.Nanosecond) // a spawned process may block
		})
	})
}
