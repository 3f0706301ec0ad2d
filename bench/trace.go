package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"packetshader/internal/core"
	"packetshader/internal/ctrl"
	"packetshader/internal/hw/gpu"
	"packetshader/internal/hw/nic"
	"packetshader/internal/packet"
)

// Spans are recorded from outside the program: around the timed call
// (the root) and around every call the program makes through an
// interface it already accepts (Source, core.App, ctrl.FIBApplier). The
// simulator runs one process at a time and none of the decorated calls
// yields, so one stack of open spans gives every span its parent.

type spanKind uint8

const (
	kindWindow spanKind = iota // root: the timed Instance.Run / RunFabric
	kindFill
	kindPreShade
	kindKernel
	kindPostShade
	kindCPUWork
	kindApply
	numKinds
)

var kindNames = [numKinds]struct{ layer, name string }{
	kindWindow:    {"core", "window"},
	kindFill:      {"pktgen", "Source.Fill"},
	kindPreShade:  {"apps", "App.PreShade"},
	kindKernel:    {"apps", "App.RunKernel"},
	kindPostShade: {"apps", "App.PostShade"},
	kindCPUWork:   {"apps", "App.CPUWork"},
	kindApply:     {"ctrl", "FIBApplier.ApplyRoutes"},
}

// fillStride is how often Source.Fill is timed; every call is counted.
const fillStride = 64

// span is pointer-free so the preallocated buffer costs the collector
// nothing while a traced pass runs.
type span struct {
	id, parent int32
	kind       spanKind
	pass       uint8
	start, end int64 // ns since the tracer was created
}

// kindTotal accumulates one kind over the active window. calls counts
// every call, timed only those with a span; units is the work the calls
// covered (packets, routes).
type kindTotal struct {
	calls, timed, units uint64
	ns                  int64
}

type openSpan struct {
	id    int32 // -1 when the buffer was full
	kind  spanKind
	start int64
}

type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	dropped  int // spans that did not fit the buffer (totals still count them)
	open     []openSpan
	pass     uint8
	active   bool // only the timed window records
	totals   [numKinds]kindTotal
	bytes    uint64 // plaintext bytes handed to RunKernel/CPUWork
	// clockNs is what one begin/end pair itself costs, measured at
	// start-up and taken off every timed span when totals are read.
	clockNs float64
}

func newTracer(workload string, capacity int) *tracer {
	t := &tracer{workload: workload, epoch: time.Now(), spans: make([]span, 0, capacity)}
	const n = 4096
	samples := make([]float64, n)
	for i := range samples {
		t0 := time.Now()
		samples[i] = float64(time.Since(t0).Nanoseconds())
	}
	t.clockNs = median(samples)
	return t
}

// startPass clears the totals and opens the root span.
func (t *tracer) startPass(pass int) {
	t.pass = uint8(pass)
	t.open = t.open[:0] // a pass that panicked mid-span leaves its spans open
	t.totals = [numKinds]kindTotal{}
	t.bytes = 0
	t.active = true
	t.begin(kindWindow)
}

func (t *tracer) endPass() {
	t.end(0)
	t.active = false
}

// begin opens a span of kind k under the innermost open span. A span
// that does not fit the buffer is still timed into the totals.
func (t *tracer) begin(k spanKind) {
	o := openSpan{id: -1, kind: k}
	if len(t.spans) < cap(t.spans) {
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].id
		}
		o.id = int32(len(t.spans))
		t.spans = append(t.spans, span{id: o.id, parent: parent, kind: k, pass: t.pass})
	} else {
		t.dropped++
	}
	t.open = append(t.open, o)
	top := &t.open[len(t.open)-1]
	top.start = time.Since(t.epoch).Nanoseconds()
	if o.id >= 0 {
		t.spans[o.id].start = top.start
	}
}

// end closes the innermost open span; units is the work it covered.
func (t *tracer) end(units int) {
	now := time.Since(t.epoch).Nanoseconds()
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	if o.id >= 0 {
		t.spans[o.id].end = now
	}
	tot := &t.totals[o.kind]
	tot.ns += now - o.start
	tot.timed++
	tot.units += uint64(units)
}

// total returns the wall time of kind k over the last pass, in ns, with
// the clock's own cost removed and untimed calls (Fill's stride) scaled
// in by the exact call count.
func (t *tracer) total(k spanKind) float64 {
	tot := t.totals[k]
	if tot.timed == 0 {
		return 0
	}
	ns := float64(tot.ns) - t.clockNs*float64(tot.timed)
	if ns < 0 {
		ns = 0
	}
	if tot.calls > tot.timed {
		ns *= float64(tot.calls) / float64(tot.timed)
	}
	return ns
}

// selfTimes returns, for the spans of one pass, each span's duration
// minus the part its children cover, keyed by span id, plus the root's
// duration.
func (t *tracer) selfTimes(pass int) (self map[int32]int64, root int64) {
	self = map[int32]int64{}
	for _, s := range t.spans {
		if int(s.pass) != pass {
			continue
		}
		d := s.end - s.start
		self[s.id] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		} else {
			root = d
		}
	}
	return self, root
}

type spanJSON struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// write dumps the spans kept in memory to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	out := make([]spanJSON, len(t.spans))
	for i, s := range t.spans {
		kn := kindNames[s.kind]
		out[i] = spanJSON{s.id, s.parent, kn.layer, kn.name, t.workload, int(s.pass), s.start, s.end}
	}
	err = json.NewEncoder(f).Encode(struct {
		FillStride int        `json:"fill_stride"`
		ClockNs    float64    `json:"clock_ns"`
		Dropped    int        `json:"dropped_spans"`
		Spans      []spanJSON `json:"spans"`
	}{fillStride, t.clockNs, t.dropped, out})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedSource decorates the frame source. Fill runs once per packet,
// so it is counted exactly and timed one call in fillStride.
type tracedSource struct {
	inner nic.FrameSource
	tr    *tracer
}

func (s *tracedSource) Fill(b *packet.Buf, port, queue int, seq uint64) {
	if !s.tr.active {
		s.inner.Fill(b, port, queue, seq)
		return
	}
	tot := &s.tr.totals[kindFill]
	tot.calls++
	if tot.calls%fillStride != 0 {
		s.inner.Fill(b, port, queue, seq)
		return
	}
	s.tr.begin(kindFill)
	s.inner.Fill(b, port, queue, seq)
	s.tr.end(1)
}

// tracedApp decorates the application. Its methods run once per chunk,
// so every call gets a span.
type tracedApp struct {
	inner core.App
	tr    *tracer
}

func (a *tracedApp) Name() string            { return a.inner.Name() }
func (a *tracedApp) Kernel() *gpu.KernelSpec { return a.inner.Kernel() }

func (a *tracedApp) PreShade(c *core.Chunk) core.PreResult {
	if !a.tr.active {
		return a.inner.PreShade(c)
	}
	a.tr.begin(kindPreShade)
	r := a.inner.PreShade(c)
	a.tr.end(len(c.Bufs))
	return r
}

// plaintext is the bytes the kernel is about to process: every frame
// minus its Ethernet header.
func plaintext(c *core.Chunk) uint64 {
	var n uint64
	for _, b := range c.Bufs {
		n += uint64(len(b.Data) - packet.EthHdrLen)
	}
	return n
}

func (a *tracedApp) RunKernel(c *core.Chunk) {
	if !a.tr.active {
		a.inner.RunKernel(c)
		return
	}
	a.tr.bytes += plaintext(c)
	a.tr.begin(kindKernel)
	a.inner.RunKernel(c)
	a.tr.end(len(c.Bufs))
}

func (a *tracedApp) PostShade(c *core.Chunk) float64 {
	if !a.tr.active {
		return a.inner.PostShade(c)
	}
	a.tr.begin(kindPostShade)
	r := a.inner.PostShade(c)
	a.tr.end(len(c.Bufs))
	return r
}

func (a *tracedApp) CPUWork(c *core.Chunk) float64 {
	if !a.tr.active {
		return a.inner.CPUWork(c)
	}
	a.tr.bytes += plaintext(c)
	a.tr.begin(kindCPUWork)
	r := a.inner.CPUWork(c)
	a.tr.end(len(c.Bufs))
	return r
}

// tracedFIB decorates the route applier the control plane writes through.
type tracedFIB struct {
	inner ctrl.FIBApplier
	tr    *tracer
}

func (f *tracedFIB) ApplyRoutes(batch []ctrl.RouteUpdate) (uint64, error) {
	if !f.tr.active {
		return f.inner.ApplyRoutes(batch)
	}
	f.tr.begin(kindApply)
	cells, err := f.inner.ApplyRoutes(batch)
	f.tr.end(len(batch))
	return cells, err
}

// consistent checks the spans of every traced pass: none dropped, all
// closed, and self times summing to the root span within 1%.
func (t *tracer) consistent() error {
	if t.dropped > 0 {
		return fmt.Errorf("%d spans did not fit the buffer", t.dropped)
	}
	if len(t.open) != 0 {
		return fmt.Errorf("%d spans left open", len(t.open))
	}
	for pass := 0; pass <= int(t.pass); pass++ {
		self, root := t.selfTimes(pass)
		if len(self) == 0 {
			continue // the pass failed before its window opened, and is counted as that
		}
		var sum int64
		for id, s := range self {
			if s < 0 {
				return fmt.Errorf("pass %d: span %d has negative self time", pass, id)
			}
			sum += s
		}
		if root <= 0 || math.Abs(float64(sum-root)) > 0.01*float64(root) {
			return fmt.Errorf("pass %d: self times sum to %d ns, root span is %d ns", pass, sum, root)
		}
	}
	return nil
}
