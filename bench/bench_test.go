package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tinyRun runs every workload at tiny sizes, two passes each, and
// returns the results and the directory their files are in.
func tinyRun(t *testing.T, trace bool) ([]*result, string) {
	t.Helper()
	all := workloads(tiny)
	o := options{seed: 1, passes: 2, trace: trace, out: t.TempDir(), sz: tiny}
	results := benchmark(all, all, o)
	for _, res := range results {
		if res.Failed != 0 {
			t.Errorf("%s: failed_ops %d: %v", res.Workload, res.Failed, res.Failures)
		}
		if err := writeJSON(filepath.Join(o.out, res.Workload+".json"), res); err != nil {
			t.Fatal(err)
		}
	}
	return results, o.out
}

// TestWorkloadsRun: every workload builds, passes its output checks and
// repeats exactly. failed_ops already covers bit-equal sim_* between
// passes; the allocation count is compared here.
func TestWorkloadsRun(t *testing.T) {
	results, dir := tinyRun(t, false)
	for _, res := range results {
		if res.Passes != 2 || res.Attempted < res.Passes+2 {
			t.Errorf("%s: %d passes, %d ops attempted", res.Workload, res.Passes, res.Attempted)
		}
		for _, d := range endToEnd {
			if v, ok := res.EndToEnd[d.Name]; !ok || v.Value == 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", res.Workload, d.Name, v)
			}
		}
	}

	// Two more passes of one workload, compared directly.
	w := workloads(tiny)[0]
	a, b := w.runPass(1, nil, 0, false), w.runPass(1, nil, 1, false)
	if a.err != nil || b.err != nil {
		t.Fatal(a.err, b.err)
	}
	if !a.sameSim(&b) || a.gbps == 0 {
		t.Errorf("simulated figures differ between passes: %v/%v vs %v/%v", a.gbps, a.latencyUs, b.gbps, b.latencyUs)
	}
	if d := a.mallocs - b.mallocs; d > 0.01*a.mallocs || -d > 0.01*a.mallocs {
		t.Errorf("allocations differ between passes: %v vs %v", a.mallocs, b.mallocs)
	}

	// A set compared against itself is the same everywhere.
	var files []string
	for _, res := range results {
		f := filepath.Join(dir, res.Workload+".json")
		files = append(files, f, f, f)
	}
	var out bytes.Buffer
	if code := compareMain(append(append(append([]string{}, files...), "--"), files...), &out); code != 0 {
		t.Errorf("compare exits %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if want := 1 + len(results)*(len(endToEnd)+1); len(lines) != want {
		t.Errorf("compare printed %d lines, want %d:\n%s", len(lines), want, out.String())
	}
	for _, line := range lines[1:] {
		if !strings.HasSuffix(line, " same") {
			t.Errorf("compare of a set against itself: %s", line)
		}
	}
}

// TestTracedRun: decorators are transparent (a traced pass whose sim_*
// differ is a failed op), every per-layer metric is reported, and the
// spans account for the window.
func TestTracedRun(t *testing.T) {
	results, dir := tinyRun(t, true)
	for _, res := range results {
		for _, d := range perLayer {
			if v, ok := res.PerLayer[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", res.Workload, d.Name, v)
			}
		}
		l := res.PerLayer
		sum := l["pktgen.fill_share_pct"].Value + l["apps.share_pct"].Value +
			l["ctrl.apply_share_pct"].Value + l["core.residual_share_pct"].Value
		if sum < 99.99 || sum > 100.01 {
			t.Errorf("%s: layer shares sum to %v%%", res.Workload, sum)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+res.Workload+".json")); err != nil {
			t.Error(err)
		}
	}

	// Self times of one traced pass sum to its root span within 1%.
	w := workloads(tiny)[4] // ipv4-churn: every decorator fires
	tr := newTracer(w.name, 1<<16)
	if p := w.runPass(1, tr, 0, false); p.err != nil {
		t.Fatal(p.err)
	}
	if err := tr.consistent(); err != nil {
		t.Error(err)
	}
	for k := kindFill; k < numKinds; k++ {
		if k != kindCPUWork && tr.totals[k].timed == 0 {
			t.Errorf("no %s span in a traced ipv4-churn pass", kindNames[k].name)
		}
	}
}

// TestManifest: BENCHMARK.json names exactly the workloads and metrics
// the program prints, with the same units, directions and bounds.
func TestManifest(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   *float64
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	var ws []*workload // the recorded ones: the rest run by hand
	for _, w := range workloads(full) {
		if w.recorded {
			ws = append(ws, w)
		}
	}
	if len(m.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		name(w.name)
		if got := m.Workloads[i]; got.Name != w.name || got.Why != w.why || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %d: %+v vs %q", i, got, w.name)
		}
	}
	check := func(kind string, got []entry, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(defs))
		}
		for i, d := range defs {
			name(d.Name)
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || !unitRE.MatchString(d.Unit) ||
				(d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s metric %d: %+v vs %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v vs %v", d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	check("end-to-end", m.EndToEnd, endToEnd, true)
	check("per-layer", m.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("setup_s is not declared as the contract wants: %+v", endToEnd[0])
	}
}
