package core

import "packetshader/internal/sim"

// Control mailbox: every worker and every master owns exactly one
// unbounded sim.Queue of tagged control messages. Two senders post to
// it — the control plane (internal/ctrl) retuning batch policy from
// scheduler context, and a master publishing its GPU hold-out state to
// its node's workers — so every hand-off is a scheduler-visible event
// on the virtual clock, not a shared-memory write racing the hot loops.
// Each process keeps a private copy of what it consults (seeded from
// the Config, updated solely by its drainMail) and reads a copy only
// after a drain; nobody ever blocks on a mailbox, so posting schedules
// nothing, and at which of two drains a message is folded in is
// unobservable as long as both precede the read.

// ctlKind tags one control message.
type ctlKind uint8

const (
	ctlChunkCap ctlKind = iota
	ctlGatherMax
	ctlOpportunistic
	ctlHoldOut
)

// ctlMsg is one message on a control mailbox.
type ctlMsg struct {
	kind ctlKind
	n    int  // ctlChunkCap, ctlGatherMax: the new value
	on   bool // ctlOpportunistic: enabled; ctlHoldOut: GPU held out
	// retryAt is when a held-out GPU may next be probed (ctlHoldOut).
	retryAt sim.Time
}

// newMailbox builds one process's unbounded control queue.
func newMailbox(env *sim.Env) *sim.Queue[ctlMsg] {
	return sim.NewQueue[ctlMsg](env, 0)
}

// drainMail folds every queued message into the worker's private
// copies, in post order. Called at the top of the worker loop, so a
// knob change posted at virtual time t governs every chunk fetched at
// or after t, and again before the offload decision, so a hold-out the
// master posted while this worker slept in pre-shading is seen.
func (w *worker) drainMail() {
	for {
		m, ok := w.mail.TryGet()
		if !ok {
			return
		}
		switch m.kind {
		case ctlChunkCap:
			w.chunkCap = m.n
		case ctlOpportunistic:
			w.opp = m.on
		case ctlHoldOut:
			w.gpuOut, w.gpuRetryAt = m.on, m.retryAt
		}
	}
}

// drainMail folds every queued message into the master's private copy
// of the one knob a launch depends on. Called when a launch round
// begins.
func (m *master) drainMail() {
	for {
		c, ok := m.mail.TryGet()
		if !ok {
			return
		}
		if c.kind == ctlGatherMax {
			m.gatherMax = c.n
		}
	}
}

// SetChunkCap changes the per-chunk packet cap (§5.3) on every worker,
// effective from each worker's next fetch. n < 1 is ignored. Safe to
// call from scheduler context (Env.At callbacks).
func (r *Router) SetChunkCap(n int) {
	if n < 1 {
		return
	}
	r.postTuning(ctlMsg{kind: ctlChunkCap, n: n})
}

// SetGatherMax changes how many chunks a master gathers into one GPU
// launch (§5.4), effective from each master's next launch. n < 1 is
// ignored.
func (r *Router) SetGatherMax(n int) {
	if n < 1 {
		return
	}
	r.postTuning(ctlMsg{kind: ctlGatherMax, n: n})
}

// SetOpportunistic enables or disables opportunistic offloading (§7) on
// every worker.
func (r *Router) SetOpportunistic(on bool) {
	r.postTuning(ctlMsg{kind: ctlOpportunistic, on: on})
}

// postTuning fans one knob change out to every worker and master
// mailbox, in process-index order. The queues are unbounded, so TryPut
// cannot fail, and posting never blocks — it is legal in scheduler
// context.
func (r *Router) postTuning(m ctlMsg) {
	for _, w := range r.workers {
		w.mail.TryPut(m)
	}
	for _, ms := range r.masters {
		ms.mail.TryPut(m)
	}
}
