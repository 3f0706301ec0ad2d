package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"

	"packetshader/internal/sim"
)

// Unit tells the registry dump how to render a metric's values.
type Unit uint8

// Units.
const (
	// UnitCount renders values as plain integers.
	UnitCount Unit = iota
	// UnitDuration renders picosecond values as microseconds
	// ("12.345678us"), exactly, without floating point.
	UnitDuration
)

// Counter is a monotonically increasing named counter. A nil Counter is
// inert.
type Counter struct {
	name string
	v    uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Set overwrites the counter value (for snapshot-style exports of
// counters maintained elsewhere, e.g. per-queue NIC statistics).
func (c *Counter) Set(v uint64) {
	if c != nil {
		c.v = v
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram bucket layout: log-linear in the HdrHistogram style. Values
// in [0, 2^histSubBits) get exact unit buckets; above that, each
// power-of-two octave is split into 2^histSubBits linear sub-buckets,
// bounding relative quantile error at 2^-histSubBits (≈1.6%) while the
// whole record/quantile path stays in integer arithmetic.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
)

// bucketOf maps a non-negative value to its bucket index. Values below
// 2^histSubBits index exactly; above, octave o = bitlen - histSubBits
// contributes histSub buckets selected by the value's top histSubBits+1
// bits.
func bucketOf(v int64) int {
	u := uint64(v)
	n := bits.Len64(u)
	if n <= histSubBits {
		return int(u) // exact small values
	}
	shift := uint(n - histSubBits - 1)
	return (n-histSubBits)*histSub + int(u>>shift) - histSub
}

// bucketUpper returns the largest value mapping to bucket i (the
// representative reported for quantiles, making quantiles conservative:
// never below the true value's bucket).
func bucketUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	o := uint(i / histSub)   // octave, >= 1
	r := uint64(i % histSub) // linear sub-bucket within the octave
	hi := (r + histSub + 1) << (o - 1)
	if hi == 0 || hi-1 > math.MaxInt64 { // top-octave shift overflow
		return math.MaxInt64
	}
	return int64(hi - 1)
}

// Histogram is a fixed-shape log-linear histogram over non-negative
// int64 samples (negative samples clamp to 0). A nil Histogram is
// inert.
type Histogram struct {
	name    string
	unit    Unit
	count   uint64
	sum     int64
	max     int64
	buckets map[int]uint64 // sparse; exported via sorted keys only
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketOf(v)]++
}

// ObserveDuration records a virtual-time sample.
func (h *Histogram) ObserveDuration(d sim.Duration) { h.Observe(int64(d)) }

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the total of the recorded samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Quantile returns an upper bound for the q-permille quantile (q in
// [0, 1000]): the upper edge of the bucket containing the sample of
// rank ceil(q/1000 * count). Returns 0 on an empty histogram.
func (h *Histogram) Quantile(permille int) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if permille < 0 {
		permille = 0
	}
	if permille > 1000 {
		permille = 1000
	}
	// rank = ceil(count * permille / 1000), at least 1.
	rank := (h.count*uint64(permille) + 999) / 1000
	if rank == 0 {
		rank = 1
	}
	keys := make([]int, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var acc uint64
	for _, k := range keys {
		acc += h.buckets[k]
		if acc >= rank {
			v := bucketUpper(k)
			if v > h.max {
				v = h.max // never report beyond the observed maximum
			}
			return v
		}
	}
	return h.max
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Registry holds named metrics. Metric handles are created up front
// (Counter/Histogram are cheap lookups but not hot-path free); the dump
// iterates name-sorted slices so output order is deterministic. A nil
// Registry hands out nil (inert) handles.
type Registry struct {
	counters []*Counter
	hists    []*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter with the given name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	for _, c := range r.counters {
		if c.name == name {
			return c
		}
	}
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	return c
}

// Histogram returns the histogram with the given name, creating it on
// first use.
func (r *Registry) Histogram(name string, unit Unit) *Histogram {
	if r == nil {
		return nil
	}
	for _, h := range r.hists {
		if h.name == name {
			return h
		}
	}
	h := &Histogram{name: name, unit: unit, buckets: map[int]uint64{}}
	r.hists = append(r.hists, h)
	return h
}

// render formats v according to unit.
func render(v int64, unit Unit) string {
	if unit == UnitDuration {
		return micros(v) + "us"
	}
	return fmt.Sprintf("%d", v)
}

// Dump writes every metric, one per line, sorted by kind then name:
//
//	counter <name> <value>
//	hist <name> count=<n> p50=<v> p95=<v> p99=<v> max=<v> mean=<v>
//
// Duration-valued histograms render in microseconds with picosecond
// precision. Output is byte-identical across identical runs.
func (r *Registry) Dump(w io.Writer) error {
	ew := &errWriter{w: w}
	if r == nil {
		return nil
	}
	cs := make([]*Counter, len(r.counters))
	copy(cs, r.counters)
	sort.Slice(cs, func(i, j int) bool { return cs[i].name < cs[j].name })
	for _, c := range cs {
		fmt.Fprintf(ew, "counter %s %d\n", c.name, c.v)
	}
	hs := make([]*Histogram, len(r.hists))
	copy(hs, r.hists)
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })
	for _, h := range hs {
		mean := int64(0)
		if h.count > 0 {
			mean = h.sum / int64(h.count)
		}
		fmt.Fprintf(ew, "hist %s count=%d p50=%s p95=%s p99=%s max=%s mean=%s\n",
			h.name, h.count,
			render(h.Quantile(500), h.unit),
			render(h.Quantile(950), h.unit),
			render(h.Quantile(990), h.unit),
			render(h.max, h.unit),
			render(mean, h.unit))
	}
	return ew.err
}

// ObserveEngine snapshots an environment's engine self-metrics
// (sim.Stats) into r as sim.* counters.
func (r *Registry) ObserveEngine(s sim.Stats) {
	r.Counter("sim.events.callback").Set(s.Callbacks)
	r.Counter("sim.events.task_step").Set(s.TaskSteps)
	r.Counter("sim.events.self_resume").Set(s.SelfResumes)
	r.Counter("sim.events.hand_off").Set(s.HandOffs)
	r.Counter("sim.heap.pushes").Set(s.Pushes)
	r.Counter("sim.heap.pops").Set(s.Pops)
	r.Counter("sim.pending_peak").Set(uint64(s.PeakPending))
	r.Counter("sim.digest").Set(s.Digest)
}

// ObserveWorld snapshots a world's self-metrics (sim.WorldStats): its
// partitions' engine counters as ObserveEngine does, and the world's
// own as sim.world.* counters. The mean imbalance rounds down.
func (r *Registry) ObserveWorld(s sim.WorldStats) {
	r.ObserveEngine(s.Engine)
	r.Counter("sim.world.windows").Set(s.Windows)
	r.Counter("sim.world.skip_aheads").Set(s.SkipAheads)
	r.Counter("sim.world.dirty_links").Set(s.DirtyLinks)
	r.Counter("sim.world.idle_partition_windows").Set(s.IdleWindows)
	r.Counter("sim.world.imbalance_max").Set(s.ImbalanceMax)
	var mean uint64
	if s.Windows > 0 {
		mean = s.ImbalanceSum / s.Windows
	}
	r.Counter("sim.world.imbalance_mean").Set(mean)
}
