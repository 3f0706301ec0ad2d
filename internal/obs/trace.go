// Package obs is the deterministic observability layer of the simulated
// router: a span tracer producing Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing), a metrics registry with counters and
// log-linear latency histograms, and a sampler that turns sim.Server
// busy accounting into per-resource occupancy timelines.
//
// Everything in this package obeys the repository's determinism
// contract: all timestamps are virtual (sim.Time picoseconds), events
// are recorded and exported in call order, registries iterate sorted
// slices (never maps), and the histogram bucket path is pure integer
// arithmetic. Two identical-seed runs therefore produce byte-identical
// trace and metrics output.
//
// A nil *Tracer (and nil metric handles) is valid and inert: every
// method nil-checks its receiver, so instrumented hot paths pay one
// predictable branch when observability is disabled — and nothing else.
// In particular no method keeps a slice its caller passed (span args are
// copied into the tracer's own arena), so a variadic call site builds
// its args on the stack and a disabled call allocates nothing;
// TestNilTracerIsInert holds every recording method to zero allocations.
package obs

import (
	"fmt"
	"io"
	"strings"

	"packetshader/internal/sim"
)

// TrackID identifies one timeline (a Perfetto "thread") registered with
// a Tracer. The zero value is the null track: events recorded against
// it on a nil Tracer are discarded.
type TrackID int32

// Arg is one integer key/value annotation attached to a trace event.
// Only integers are allowed: float formatting is a determinism hazard
// and every quantity in the simulation (counts, bytes, picoseconds) is
// integral.
type Arg struct {
	Key string
	Val int64
}

// eventKind discriminates trace event records.
type eventKind uint8

const (
	kindSpan    eventKind = iota // Chrome "X" complete event
	kindInstant                  // Chrome "i" instant event
	kindCounter                  // Chrome "C" counter event
)

type traceEvent struct {
	kind  eventKind
	track TrackID
	name  string
	at    sim.Time
	dur   sim.Duration
	// The event's args are Tracer.args[argOff : argOff+argN].
	argOff, argN int
}

type track struct {
	process string // groups tracks into Perfetto processes
	name    string
	pid     int32
	tid     int32
}

// Tracer records virtual-time lifecycle events and exports them as
// Chrome trace-event JSON. Create one with NewTracer; a nil Tracer
// discards everything at the cost of a nil check.
type Tracer struct {
	tracks []track
	// pids maps process name -> pid in first-registration order. Small
	// linear slice: a handful of processes exist (workers, masters,
	// devices, resources).
	pids   []string
	events []traceEvent
	args   []Arg // every event's args, back to back in record order
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Track registers (or finds) the timeline named name under the given
// process group and returns its ID. Tracks are identified by the
// (process, name) pair; registration order determines pid/tid
// assignment, so identical call sequences yield identical exports.
func (t *Tracer) Track(process, name string) TrackID {
	if t == nil {
		return 0
	}
	for i := range t.tracks {
		if t.tracks[i].process == process && t.tracks[i].name == name {
			return TrackID(i + 1)
		}
	}
	pid := int32(-1)
	for i, p := range t.pids {
		if p == process {
			pid = int32(i + 1)
			break
		}
	}
	if pid < 0 {
		t.pids = append(t.pids, process)
		pid = int32(len(t.pids))
	}
	tid := int32(1)
	for i := range t.tracks {
		if t.tracks[i].pid == pid {
			tid++
		}
	}
	t.tracks = append(t.tracks, track{process: process, name: name, pid: pid, tid: tid})
	return TrackID(len(t.tracks))
}

// Span records a complete event of duration d starting at start.
func (t *Tracer) Span(tr TrackID, name string, start sim.Time, d sim.Duration, args ...Arg) {
	if t == nil || tr == 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	t.record(traceEvent{kind: kindSpan, track: tr, name: name, at: start, dur: d}, args)
}

// record appends ev with a copy of args: keeping the caller's slice
// would make every call site allocate one, tracer or no tracer.
func (t *Tracer) record(ev traceEvent, args []Arg) {
	ev.argOff, ev.argN = len(t.args), len(args)
	t.args = append(t.args, args...)
	t.events = append(t.events, ev)
}

// SpanUntil records a complete event covering [start, end).
func (t *Tracer) SpanUntil(tr TrackID, name string, start, end sim.Time, args ...Arg) {
	t.Span(tr, name, start, sim.Duration(end-start), args...)
}

// Instant records a zero-duration marker at time at.
func (t *Tracer) Instant(tr TrackID, name string, at sim.Time, args ...Arg) {
	if t == nil || tr == 0 {
		return
	}
	t.record(traceEvent{kind: kindInstant, track: tr, name: name, at: at}, args)
}

// Counter records a counter sample (rendered by Perfetto as a stepped
// area chart). val is carried as the single arg.
func (t *Tracer) Counter(tr TrackID, name string, at sim.Time, val int64) {
	if t == nil || tr == 0 {
		return
	}
	t.record(traceEvent{kind: kindCounter, track: tr, name: name, at: at},
		[]Arg{{Key: "value", Val: val}})
}

// Events returns the number of recorded events.
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// micros renders a picosecond quantity as a decimal microsecond string
// with six fractional digits — exact, no floating point. The Chrome
// trace "ts"/"dur" fields are microseconds.
func micros(ps int64) string {
	neg := ""
	if ps < 0 {
		neg, ps = "-", -ps
	}
	return fmt.Sprintf("%s%d.%06d", neg, ps/1_000_000, ps%1_000_000)
}

// quote escapes s as a JSON string literal. Trace names are plain ASCII
// identifiers in practice; this keeps arbitrary input valid anyway.
func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(&b, "\\u%04x", c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

func writeArgs(w io.Writer, args []Arg) {
	io.WriteString(w, `,"args":{`)
	for i, a := range args {
		if i > 0 {
			io.WriteString(w, ",")
		}
		fmt.Fprintf(w, "%s:%d", quote(a.Key), a.Val)
	}
	io.WriteString(w, "}")
}

// WriteJSON exports the trace in Chrome trace-event JSON ("JSON object
// format"): process/thread name metadata first, then all events in
// record order. Open the file at https://ui.perfetto.dev or
// chrome://tracing.
func (t *Tracer) WriteJSON(w io.Writer) error {
	bw := &errWriter{w: w}
	io.WriteString(bw, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	sep := func() {
		if !first {
			io.WriteString(bw, ",\n")
		}
		first = false
	}
	if t != nil {
		// Metadata: one process_name per pid, one thread_name per track.
		for i, p := range t.pids {
			sep()
			fmt.Fprintf(bw, `{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`,
				i+1, quote(p))
		}
		for _, tr := range t.tracks {
			sep()
			fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
				tr.pid, tr.tid, quote(tr.name))
		}
		for _, ev := range t.events {
			tr := t.tracks[ev.track-1]
			sep()
			switch ev.kind {
			case kindSpan:
				fmt.Fprintf(bw, `{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":%s,"cat":"sim"`,
					tr.pid, tr.tid, micros(int64(ev.at)), micros(int64(ev.dur)), quote(ev.name))
			case kindInstant:
				fmt.Fprintf(bw, `{"ph":"i","pid":%d,"tid":%d,"ts":%s,"s":"t","name":%s,"cat":"sim"`,
					tr.pid, tr.tid, micros(int64(ev.at)), quote(ev.name))
			case kindCounter:
				fmt.Fprintf(bw, `{"ph":"C","pid":%d,"tid":%d,"ts":%s,"name":%s`,
					tr.pid, tr.tid, micros(int64(ev.at)), quote(ev.name))
			}
			if ev.argN > 0 {
				writeArgs(bw, t.args[ev.argOff:ev.argOff+ev.argN])
			}
			io.WriteString(bw, "}")
		}
	}
	io.WriteString(bw, "\n]}\n")
	return bw.err
}

// errWriter latches the first write error so the export loop stays
// branch-free.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}
