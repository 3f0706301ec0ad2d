package sim

// Stats are an environment's self-metrics: what its event loop did to
// produce the run. They are always on, cost a few adds per event, and
// are pure functions of the run — the same on every host, and for a
// World partition the same for any worker count — so a -metrics dump
// can print them next to the model's own counters.
//
// Every dispatched event is one of four kinds: an At/After callback, a
// task step, a goroutine process's wakeup that the process itself was
// driving the loop for (it resumes with no channel operation), or one
// that hands the control token to another goroutine. Digest folds each
// dispatched event's (at, seq, kind, process spawn index) into one
// SplitMix64 chain, in dispatch order: two runs with equal digests
// dispatched the same schedule, and a change that moves one event moves
// the digest.
type Stats struct {
	Callbacks   uint64 // At/After callbacks run
	TaskSteps   uint64 // task steps called inline
	SelfResumes uint64 // goroutine wakeups of the process driving the loop
	HandOffs    uint64 // goroutine wakeups that switched goroutines
	Pushes      uint64 // events pushed onto the future-event heap
	Pops        uint64 // events popped off it
	PeakPending int    // most events pending at once (heap and same-instant ring)
	Digest      uint64 // the schedule digest
}

// Events returns the number of dispatched events of every kind.
func (s *Stats) Events() uint64 {
	return s.Callbacks + s.TaskSteps + s.SelfResumes + s.HandOffs
}

// Event kinds, as folded into the digest.
const (
	kindCallback uint64 = iota
	kindTaskStep
	kindSelfResume
	kindHandOff
)

// fold folds a dispatched event of the given kind into the digest: the
// four fields are mixed into one word off the digest's dependency chain
// (two independent multiplies), and the chain pays one SplitMix64 step
// per event. Callbacks carry spawn index 0; processes count from 1.
func (e *Env) fold(ev *event, kind uint64) {
	var spawn uint64
	if ev.p != nil {
		spawn = ev.p.spawn
	}
	x := uint64(ev.at) + ev.seq*SplitMixGamma + (spawn<<2|kind)*0xbf58476d1ce4e5b9
	e.stats.Digest = SplitMix64(e.stats.Digest ^ x)
}

// Stats returns the environment's self-metrics so far.
func (e *Env) Stats() Stats { return e.stats }

// WorldStats are a World's self-metrics: its windows and barriers, how
// evenly the partitions shared each window's events, and the partitions'
// own Stats. Like Stats they are pure functions of the run, equal for
// any worker count.
type WorldStats struct {
	Windows    uint64 // conservative windows, one barrier each
	SkipAheads uint64 // windows that began past the previous one's end (idle time skipped)
	DirtyLinks uint64 // links a barrier moved messages of, summed over barriers
	// IdleWindows counts (partition, window) pairs in which the
	// partition dispatched no event.
	IdleWindows uint64
	// A window's imbalance is the most events one partition dispatched
	// in it minus the fewest; ImbalanceMax is the largest over the
	// windows and ImbalanceSum their total (the mean is the sum over
	// Windows).
	ImbalanceMax uint64
	ImbalanceSum uint64
	// Engine sums the partitions' Stats; PeakPending is the largest
	// partition's, and Digest combines the partition digests in
	// partition order.
	Engine Stats
}

// Stats returns the world's self-metrics so far.
func (w *World) Stats() WorldStats {
	s := w.stats
	for _, pt := range w.parts {
		ps := &pt.env.stats
		s.Engine.Callbacks += ps.Callbacks
		s.Engine.TaskSteps += ps.TaskSteps
		s.Engine.SelfResumes += ps.SelfResumes
		s.Engine.HandOffs += ps.HandOffs
		s.Engine.Pushes += ps.Pushes
		s.Engine.Pops += ps.Pops
		s.Engine.PeakPending = max(s.Engine.PeakPending, ps.PeakPending)
		s.Engine.Digest = SplitMix64(s.Engine.Digest ^ ps.Digest)
	}
	return s
}

// countWindow folds the window that just ended into the world's
// counters: each partition's events since the previous window.
func (w *World) countWindow(start Time) {
	s := &w.stats
	if start > w.lastEnd+1 {
		s.SkipAheads++
	}
	s.Windows++
	var most, least uint64
	for i, pt := range w.parts {
		ev := pt.env.stats.Events()
		n := ev - pt.events
		pt.events = ev
		if n == 0 {
			s.IdleWindows++
		}
		if i == 0 || n > most {
			most = n
		}
		if i == 0 || n < least {
			least = n
		}
	}
	s.ImbalanceMax = max(s.ImbalanceMax, most-least)
	s.ImbalanceSum += most - least
}
