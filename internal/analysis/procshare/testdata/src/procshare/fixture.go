// Fixture for the procshare analyzer: concurrency roots (Env.Go procs,
// Env.Task tasks, Env.At/After callbacks) sharing package vars, captured variables and
// struct fields, plus the sanctioned exemptions (sim.Queue mediation,
// sync.Once read-only-after-construction, per-instance loop captures,
// //pslint:ignore directives).
package procshare

import (
	"sync"

	"packetshader/internal/sim"
)

// ---- package-level variable shared by two procs ----

var hits int

func startVarPair(env *sim.Env) {
	env.Go("a", func(p *sim.Proc) {
		hits++ // want `var fixture/procshare\.hits is written by proc "a" .* and read by proc "b"`
	})
	env.Go("b", func(p *sim.Proc) {
		_ = hits
	})
}

// ---- captured closure variable shared by two procs ----

func startCapturePair(env *sim.Env) {
	n := 0
	env.Go("inc", func(p *sim.Proc) {
		n++ // want `capture n \(fixture\.go:\d+\) is written by proc "inc" .* and written by proc "dec"`
	})
	env.Go("dec", func(p *sim.Proc) {
		n--
	})
}

// ---- proc paired with a scheduler callback ----

func startCallback(env *sim.Env) {
	var late int
	env.Go("w", func(p *sim.Proc) {
		late = 1 // want `capture late \(fixture\.go:\d+\) is written by proc "w" .* and read by callback "At"`
	})
	env.At(5, func() {
		_ = late
	})
}

// ---- loop-spawned proc: instances share outer capture, not loop-local ----

func startWorkers(env *sim.Env) {
	total := 0
	for i := 0; i < 4; i++ {
		i := i // per-instance: declared inside the loop, no self-report
		env.Go("worker", func(p *sim.Proc) {
			total += i // want `proc "worker" .* runs as multiple instances that all write capture total`
		})
	}
}

// ---- field of one object captured by two procs ----

type counter struct{ n int }

func startField(env *sim.Env) {
	c := &counter{}
	env.Go("fa", func(p *sim.Proc) {
		c.n++ // want `field \(fixture/procshare\.counter\)\.n is written by proc "fa" .* and read by proc "fb"`
	})
	env.Go("fb", func(p *sim.Proc) {
		_ = c.n
	})
}

// ---- shared state reached transitively through a helper ----

var logLines []string

func appendLog(s string) { logLines = append(logLines, s) }

func startLog(env *sim.Env) {
	env.Go("logger1", func(p *sim.Proc) {
		appendLog("x") // want `var fixture/procshare\.logLines is written by proc "logger1" .* and written by proc "logger2"`
	})
	env.Go("logger2", func(p *sim.Proc) {
		appendLog("y")
	})
}

// ---- method-value callback root ----

type gauge struct{ v int }

func (g *gauge) bump() { g.v++ }

func startMethod(env *sim.Env) {
	g := &gauge{}
	env.After(3, g.bump) // want `field \(fixture/procshare\.gauge\)\.v is written by callback "After" .* and read by proc "reader"`
	env.Go("reader", func(p *sim.Proc) {
		_ = g.v
	})
}

// ---- mediated by sim.Queue: the sanctioned channel, no findings ----

func startQueue(env *sim.Env) {
	q := sim.NewQueue[int](env, 8)
	env.Go("prod", func(p *sim.Proc) {
		q.Put(p, 1)
	})
	env.Go("cons", func(p *sim.Proc) {
		_ = q.Get(p)
	})
}

// ---- queue element type: hand-off fields are queue-mediated ----

// job travels between procs through a sim.Queue, so its fields are
// hand-off state: ownership transfers at Put/Get, which are lookahead
// boundaries. No findings, even though producer and consumer both write
// the same field of the same instance.
type job struct{ step int }

func startHandOff(env *sim.Env) {
	jobs := sim.NewQueue[*job](env, 4)
	env.Go("maker", func(p *sim.Proc) {
		j := &job{}
		j.step = 1
		jobs.Put(p, j)
	})
	env.Go("taker", func(p *sim.Proc) {
		j := jobs.Get(p)
		j.step = 2
	})
}

// result is NOT a queue element anywhere in this package, so the same
// shape still reports: the exemption is keyed to the element type.
type result struct{ step int }

func startNoHandOff(env *sim.Env) {
	r := &result{}
	env.Go("ra", func(p *sim.Proc) {
		r.step = 1 // want `field \(fixture/procshare\.result\)\.step is written by proc "ra" .* and written by proc "rb"`
	})
	env.Go("rb", func(p *sim.Proc) {
		r.step = 2
	})
}

// ---- read-only after a sync.Once build: no findings ----

var (
	table     map[int]int
	tableOnce sync.Once
)

func getTable() map[int]int {
	tableOnce.Do(func() { table = map[int]int{1: 1} })
	return table
}

func startOnce(env *sim.Env) {
	env.Go("oa", func(p *sim.Proc) {
		_ = getTable()
	})
	env.Go("ob", func(p *sim.Proc) {
		_ = getTable()
	})
}

// ---- waived line-wise with a reason: no findings ----

var debugCount int

func startIgnored(env *sim.Env) {
	env.Go("da", func(p *sim.Proc) {
		debugCount++ //pslint:ignore procshare debug-only counter, torn updates acceptable
	})
	env.Go("db", func(p *sim.Proc) {
		_ = debugCount
	})
}

// ---- named-function roots: accesses anchor at the spawn site ----

var ticks int

func tick(p *sim.Proc) { ticks++ }
func tock(p *sim.Proc) { _ = ticks }

func startNamed(env *sim.Env) {
	env.Go("tick", tick) // want `var fixture/procshare\.ticks is written by proc "tick" .* and read by proc "tock"`
	env.Go("tock", tock)
}

// ---- tasks are proc roots, named like Go roots ----

var armed int

func startTaskPair(env *sim.Env) {
	env.Task("arm", func(p *sim.Proc) {
		armed++ // want `var fixture/procshare\.armed is written by task "arm" .* and read by proc "watch"`
	})
	env.Go("watch", func(p *sim.Proc) {
		_ = armed
	})
}

// ---- the fabric shape: per-node method-value tasks spawned in a loop ----

// box is one node with two tasks. emitted and drained each have a single
// writer task and every access goes through the per-iteration receiver,
// so they are per-instance and clean; both tasks write seen (method-value
// roots anchor at the spawn site).
type box struct {
	inbox   *sim.Queue[int]
	emitted int
	drained int
	seen    int
}

func (b *box) emit(p *sim.Proc) {
	b.emitted++
	b.seen++
	b.inbox.TryPut(b.emitted)
	p.WakeAfter(sim.Nanosecond)
}

func (b *box) drain(p *sim.Proc) {
	for {
		if _, ok := b.inbox.Await(p); !ok {
			return
		}
		b.drained++
		b.seen++
	}
}

func startBoxes(env *sim.Env, boxes []*box) {
	for _, b := range boxes {
		env.Task("emit", b.emit) // want `field \(fixture/procshare\.box\)\.seen is written by task "emit" .* and written by task "drain"`
		env.Task("drain", b.drain)
	}
}
