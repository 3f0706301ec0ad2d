package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"packetshader/internal/sim"
)

// disabled is what an instrumented hot path holds when observability is
// off. A package variable, so the compiler cannot see through the calls
// below the way it could with a local nil.
var disabled struct {
	tr    *Tracer
	track TrackID
}

func TestNilTracerIsInert(t *testing.T) {
	tr := disabled.tr
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	id := tr.Track("p", "t")
	tr.Span(id, "x", 0, 5*sim.Nanosecond)
	tr.Instant(id, "y", 0)
	tr.Counter(id, "z", 0, 1)
	if tr.Events() != 0 {
		t.Error("nil tracer recorded events")
	}
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("nil-tracer export is not valid JSON: %v", err)
	}

	// Inert means the call costs its nil check: no call site may
	// allocate, whatever it passes. (A tracer that kept the variadic
	// slice made every site with args allocate it, enabled or not.)
	n := int64(len(b.Bytes()))
	calls := []struct {
		name string
		f    func()
	}{
		{"Span, no args", func() { disabled.tr.Span(disabled.track, "x", 0, 5) }},
		{"Span, one arg", func() { disabled.tr.Span(disabled.track, "x", 0, 5, Arg{"packets", n}) }},
		{"SpanUntil, two args", func() {
			disabled.tr.SpanUntil(disabled.track, "x", 0, 5, Arg{"threads", n}, Arg{"streams", n + 1})
		}},
		{"Instant, one arg", func() { disabled.tr.Instant(disabled.track, "y", 0, Arg{"port", n}) }},
		{"Instant, two args", func() { disabled.tr.Instant(disabled.track, "y", 0, Arg{"port", n}, Arg{"node", n}) }},
		{"Counter", func() { disabled.tr.Counter(disabled.track, "z", 0, n) }},
	}
	for _, c := range calls {
		if got := testing.AllocsPerRun(100, c.f); got != 0 {
			t.Errorf("%s on a nil tracer: %v allocations per call, want 0", c.name, got)
		}
	}
}

// TestWriteJSONBytes pins the export byte for byte: where the tracer
// keeps an event's args is its own business, what it writes is not.
func TestWriteJSONBytes(t *testing.T) {
	tr := NewTracer()
	w := tr.Track("workers", "worker0")
	g := tr.Track("devices", "gpu0")
	tr.Span(w, "rx-fetch", sim.Time(2*sim.Microsecond), 500*sim.Nanosecond, Arg{"packets", 32})
	tr.Span(w, "pre-shade", sim.Time(2500*sim.Nanosecond), 0)
	tr.SpanUntil(g, "launch-streams:ipsec", sim.Time(3*sim.Microsecond), sim.Time(4*sim.Microsecond+1),
		Arg{"threads", 96}, Arg{"streams", 4})
	tr.Instant(g, "gpu-stall", sim.Time(5*sim.Microsecond), Arg{"chunks", -1})
	tr.Counter(w, "inflight", sim.Time(6*sim.Microsecond), 7)
	tr.Instant(w, "drop", sim.Time(7*sim.Microsecond))
	const want = `{"displayTimeUnit":"ns","traceEvents":[
{"ph":"M","pid":1,"name":"process_name","args":{"name":"workers"}},
{"ph":"M","pid":2,"name":"process_name","args":{"name":"devices"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"worker0"}},
{"ph":"M","pid":2,"tid":1,"name":"thread_name","args":{"name":"gpu0"}},
{"ph":"X","pid":1,"tid":1,"ts":2.000000,"dur":0.500000,"name":"rx-fetch","cat":"sim","args":{"packets":32}},
{"ph":"X","pid":1,"tid":1,"ts":2.500000,"dur":0.000000,"name":"pre-shade","cat":"sim"},
{"ph":"X","pid":2,"tid":1,"ts":3.000000,"dur":1.000001,"name":"launch-streams:ipsec","cat":"sim","args":{"threads":96,"streams":4}},
{"ph":"i","pid":2,"tid":1,"ts":5.000000,"s":"t","name":"gpu-stall","cat":"sim","args":{"chunks":-1}},
{"ph":"C","pid":1,"tid":1,"ts":6.000000,"name":"inflight","args":{"value":7}},
{"ph":"i","pid":1,"tid":1,"ts":7.000000,"s":"t","name":"drop","cat":"sim"}
]}
`
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("WriteJSON\n got %s\nwant %s", b.String(), want)
	}
}

func TestTracerExportIsValidChromeTrace(t *testing.T) {
	tr := NewTracer()
	w0 := tr.Track("workers", "worker0")
	gpu := tr.Track("devices", "gpu0")
	w1 := tr.Track("workers", "worker1")
	if w0 == gpu || w0 == w1 {
		t.Fatal("track IDs collide")
	}
	if again := tr.Track("workers", "worker0"); again != w0 {
		t.Errorf("re-registration returned %d, want %d", again, w0)
	}
	tr.Span(w0, "pre-shade", sim.Time(2*sim.Microsecond), 500*sim.Nanosecond,
		Arg{"packets", 32})
	tr.Instant(w1, "drop", sim.Time(3*sim.Microsecond))
	tr.Counter(gpu, "inflight", sim.Time(4*sim.Microsecond), 7)

	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Name string          `json:"name"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, b.String())
	}
	// 2 process metadata + 3 thread metadata + 3 events.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8:\n%s", len(doc.TraceEvents), b.String())
	}
	var span, instant, counter int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			span++
			if ev.Ts != 2.0 || ev.Dur != 0.5 {
				t.Errorf("span ts/dur = %v/%v, want 2/0.5 us", ev.Ts, ev.Dur)
			}
			if !strings.Contains(string(ev.Args), `"packets":32`) {
				t.Errorf("span args = %s", ev.Args)
			}
		case "i":
			instant++
		case "C":
			counter++
		case "M":
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if span != 1 || instant != 1 || counter != 1 {
		t.Errorf("span/instant/counter = %d/%d/%d, want 1/1/1", span, instant, counter)
	}
}

func TestMicrosExact(t *testing.T) {
	cases := []struct {
		ps   int64
		want string
	}{
		{0, "0.000000"},
		{1, "0.000001"},
		{999_999, "0.999999"},
		{1_000_000, "1.000000"},
		{1_234_567_890, "1234.567890"},
		{-1_500_000, "-1.500000"},
	}
	for _, c := range cases {
		if got := micros(c.ps); got != c.want {
			t.Errorf("micros(%d) = %q, want %q", c.ps, got, c.want)
		}
	}
}

func TestHistogramBucketsRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose bounds contain it, and
	// bucket indexes must be monotone in the value.
	prev := -1
	for _, v := range []int64{0, 1, 2, 63, 64, 65, 127, 128, 129, 255, 256,
		1000, 4096, 10_000, 1_000_000, 123_456_789, int64(1) << 40} {
		b := bucketOf(v)
		if b < prev {
			t.Errorf("bucketOf(%d) = %d < previous %d (not monotone)", v, b, prev)
		}
		prev = b
		if up := bucketUpper(b); up < v {
			t.Errorf("bucketUpper(bucketOf(%d)) = %d < value", v, up)
		}
		if b > 0 {
			if lowUp := bucketUpper(b - 1); lowUp >= v {
				t.Errorf("value %d should be above bucket %d upper %d", v, b-1, lowUp)
			}
		}
	}
}

func TestHistogramQuantilesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := (&Registry{}).Histogram("lat", UnitDuration)
	var samples []int64
	for i := 0; i < 5000; i++ {
		v := int64(rng.ExpFloat64() * 50_000) // ~50ns scale, long tail
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []int{500, 950, 990} {
		rank := (len(samples)*q + 999) / 1000
		exact := samples[rank-1]
		got := h.Quantile(q)
		// Log-linear with 64 sub-buckets: ≤ ~1.6% relative error upward.
		if got < exact {
			t.Errorf("p%d = %d below exact %d (quantiles must be conservative)", q, got, exact)
		}
		if float64(got) > float64(exact)*1.04+1 {
			t.Errorf("p%d = %d, exact %d: error too large", q, got, exact)
		}
	}
	if h.Max() != samples[len(samples)-1] {
		t.Errorf("max = %d, want %d", h.Max(), samples[len(samples)-1])
	}
	if h.Quantile(1000) != h.Max() {
		t.Errorf("p100 = %d, want max %d", h.Quantile(1000), h.Max())
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(5) // must not panic
	if nilH.Quantile(500) != 0 || nilH.Count() != 0 {
		t.Error("nil histogram not inert")
	}
	h := NewRegistry().Histogram("h", UnitCount)
	if h.Quantile(500) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	h.Observe(-5) // clamps to 0
	if h.Quantile(500) != 0 || h.Count() != 1 {
		t.Errorf("negative sample: q=%d count=%d", h.Quantile(500), h.Count())
	}
	h.Observe(42)
	if got := h.Quantile(1000); got != 42 {
		t.Errorf("p100 = %d, want 42", got)
	}
}

func TestRegistryDumpDeterministicAndSorted(t *testing.T) {
	dump := func() string {
		r := NewRegistry()
		r.Counter("zeta").Add(3)
		r.Counter("alpha").Add(1)
		h := r.Histogram("mid", UnitDuration)
		for i := int64(1); i <= 100; i++ {
			h.Observe(i * int64(sim.Nanosecond))
		}
		var b bytes.Buffer
		if err := r.Dump(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := dump(), dump()
	if a != b {
		t.Fatalf("dump not deterministic:\n%s\nvs\n%s", a, b)
	}
	lines := strings.Split(strings.TrimSpace(a), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), a)
	}
	if !strings.HasPrefix(lines[0], "counter alpha 1") ||
		!strings.HasPrefix(lines[1], "counter zeta 3") ||
		!strings.HasPrefix(lines[2], "hist mid count=100") {
		t.Errorf("unexpected dump order/content:\n%s", a)
	}
	if !strings.Contains(lines[2], "us") {
		t.Errorf("duration histogram not rendered in us: %s", lines[2])
	}
}

func TestRegistryNilAndDedup(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc() // nil handle must be inert
	if c.Value() != 0 {
		t.Error("nil registry counter counted")
	}
	r2 := NewRegistry()
	if r2.Counter("a") != r2.Counter("a") {
		t.Error("counter not deduped by name")
	}
	if r2.Histogram("h", UnitCount) != r2.Histogram("h", UnitCount) {
		t.Error("histogram not deduped by name")
	}
	r2.Counter("snap").Set(99)
	if r2.Counter("snap").Value() != 99 {
		t.Error("Set did not stick")
	}
}

// TestServerSamplerTilesBusyTime: the sampler records one span per
// reservation on a per-resource track, and WriteUtil reports the
// servers' own occupancy, name-sorted, omitting a server that never
// served.
func TestServerSamplerTilesBusyTime(t *testing.T) {
	env := sim.NewEnv()
	tr := NewTracer()
	env.SetHooks(NewServerSampler(tr))
	a := sim.NewServer(env, "pcie-up")
	b := sim.NewServer(env, "gpu-exec")
	sim.NewServer(env, "idle")
	env.Go("driver", func(p *sim.Proc) {
		a.Use(p, 3*sim.Microsecond)
		b.Schedule(5 * sim.Microsecond)
		p.Sleep(10 * sim.Microsecond)
		a.Use(p, 2*sim.Microsecond)
	})
	env.Run(0)
	// One span per reservation, on per-resource tracks.
	if tr.Events() != 3 {
		t.Errorf("recorded %d spans, want 3", tr.Events())
	}
	var rep bytes.Buffer
	if err := WriteUtil(&rep, env); err != nil {
		t.Fatal(err)
	}
	want := "util gpu-exec#2 busy=5.000000us spans=1 occ=333\n" +
		"util pcie-up#1 busy=5.000000us spans=2 occ=333\n"
	if rep.String() != want {
		t.Errorf("util report:\n%s\nwant:\n%s", rep.String(), want)
	}
}

// TestSamplerWithNilTracer: a sampler without a tracer records nothing,
// and the occupancy report reads the same with it installed as with no
// hooks at all.
func TestSamplerWithNilTracer(t *testing.T) {
	var reps [2]bytes.Buffer
	for i := range reps {
		env := sim.NewEnv()
		if i == 1 {
			env.SetHooks(NewServerSampler(nil))
		}
		s := sim.NewServer(env, "ioh-up")
		s.Schedule(7 * sim.Microsecond)
		env.After(14*sim.Microsecond, func() {})
		env.Run(0)
		if err := WriteUtil(&reps[i], env); err != nil {
			t.Fatal(err)
		}
	}
	if want := "util ioh-up#1 busy=7.000000us spans=1 occ=500\n"; reps[0].String() != want || reps[1].String() != want {
		t.Errorf("without hooks %q, with a nil-tracer sampler %q; want %q", reps[0].String(), reps[1].String(), want)
	}
}
