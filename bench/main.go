// Command bench is the repository's benchmark: five workloads (three of
// them recorded in BENCHMARK.json and gated by the driver), seven
// end-to-end metrics on two clocks, and a traced mode that attributes
// each timed window to the program's layers from outside. See README.md
// in this directory and BENCHMARK.json at the root of the repository.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"packetshader/internal/sim"
)

const (
	// minPasses is the fewest passes an untraced run makes, even when
	// that overruns its time budget (ipsec-1514B needs about 30 s for
	// them): the quiet-host estimate needs every slice of the window to
	// have met a quiet moment in some pass.
	minPasses = 11
	// Traced runs make between minRounds and maxRounds rounds, each one
	// traced pass plus the untraced passes it is compared with.
	minRounds = 3
	maxRounds = 5
	// Fig 11's own warm-up and window, for the fidelity figure.
	paperWarm   = 12 * sim.Millisecond
	paperWindow = 8 * sim.Millisecond
	// spanCap is the spans kept per traced run (32 bytes each).
	spanCap = 1 << 18
)

type options struct {
	seed    int64
	seconds float64 // time budget per workload; ignored when passes > 0
	passes  int
	trace   bool
	out     string
	sz      sizes
}

// envRecord says where and on what a result was measured.
type envRecord struct {
	Commit     string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment fills the record for a workload that runs on procs
// processors.
func environment(procs int) envRecord {
	e := envRecord{Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: procs}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// print writes the human-readable report of one result, then the
// driver's line.
func (res *result) print(w *workload) {
	fmt.Printf("# workload %s  seed %d  passes %d x (W %.3g ms + T %.3g ms)  GOMAXPROCS %d of %d CPUs  %s\n",
		res.Workload, res.Seed, res.Passes, res.WarmNs/1e6, res.WindowNs/1e6, res.Env.GOMAXPROCS, res.Env.NProc, res.Env.GoVersion)
	fmt.Printf("#   why: %s\n", w.why)
	if res.Passes < minPasses && !res.Trace {
		fmt.Printf("#   note: %d passes is below the floor of %d for a recorded result\n", res.Passes, minPasses)
	}
	for _, c := range res.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Printf("#   check %-20s %-6s %s\n", c.Name, status, c.Detail)
	}
	fmt.Printf("#   attempted_ops %d  failed_ops %d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("#   FAILED %s\n", f)
	}
	show := func(defs []metricDef, vals map[string]metricValue) {
		for _, d := range defs {
			fmt.Printf("%-26s %16.6g %-10s [%s] %s\n", d.Name, vals[d.Name].Value, d.Unit, d.Clock, d.What)
		}
	}
	show(endToEnd, res.EndToEnd)
	fmt.Printf("#   as measured, before scaling to host.cal_mem_ms = %g (ungated): setup_s %.4g  wall_ns_per_sim_ns %.4g;  host.cal_mem_ms fastest %.3g median %.3g of %d samples;  host.cal_alu_ms %.3g\n",
		calRefMs, res.RawSetupS, res.RawWall, quantile(res.CalMem, 0), res.CalMemMs, len(res.CalMem), res.CalALUMs)
	fmt.Printf("#   whole windows as they ran, n=%d passes (ungated): min %.4g  p50 %.4g  p75 %.4g  max %.4g ns/sim_ns\n",
		res.Passes, quantile(res.Samples, 0), res.WallP50, res.WallP75, res.WallMax)
	line := contractLine{res.Failed == 0, res.Attempted, res.Failed, res.EndToEnd}
	if res.Trace {
		show(perLayer, res.PerLayer)
		if w.paperGbps == 0 {
			fmt.Println("#   model.fidelity_err_pct: the paper has no figure for this configuration: unvalidated")
		}
		for _, r := range res.LayerRows {
			fmt.Println("#   " + r)
		}
		line.Metrics = res.PerLayer
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// benchmark runs the selected workloads round-robin, one round each per
// turn, and returns their results in the order given.
func benchmark(ws []*workload, all []*workload, o options) []*result {
	runs := make([]*run, len(ws))
	for i, w := range ws {
		r := &run{w: w, o: o}
		for _, s := range all {
			if s.name == w.sibling {
				r.sibling = s
			}
		}
		if o.trace {
			r.tr = newTracer(w.name, spanCap)
			if r.sibling != nil {
				r.sibTr = newTracer(r.sibling.name, spanCap)
			}
		}
		t0 := time.Now()
		r.checks = w.verify(o.seed)
		r.spent = time.Since(t0)
		runs[i] = r
	}
	for active := true; active; {
		active = false
		for _, r := range runs {
			if r.wantsMore() {
				r.round()
				active = true
			}
		}
	}
	results := make([]*result, len(runs))
	for i, r := range runs {
		r.finish()
		results[i] = r.result(environment(r.w.setProcs()))
		if r.tr != nil && o.out != "" {
			if err := r.tr.write(filepath.Join(o.out, "trace-"+r.w.name+".json")); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
		}
	}
	return results
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var o options
	var names string
	var trace int
	flag.Int64Var(&o.seed, "seed", 1, "seed for table generation, the traffic source and the fabric flow keys (2 is the held-out seed)")
	flag.StringVar(&names, "workload", "", "workloads to run, comma-separated (default: all)")
	flag.Float64Var(&o.seconds, "seconds", 42, "time budget per workload, output checks included; passes run until it is spent")
	flag.IntVar(&o.passes, "passes", 0, "fixed number of passes per workload, overriding -seconds (11 is the floor for a recorded result)")
	flag.IntVar(&trace, "trace", 0, "1: traced run (per-layer metrics and spans); 0: end-to-end metrics")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for result and trace files (empty: write none)")
	flag.Parse()
	o.trace, o.sz = trace != 0, full
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected argument", flag.Arg(0))
		os.Exit(2)
	}

	all := workloads(o.sz)
	ws := all
	if names != "" {
		ws = nil
		for _, name := range strings.Split(names, ",") {
			var found *workload
			for _, w := range all {
				if w.name == name {
					found = w
				}
			}
			if found == nil {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
				os.Exit(2)
			}
			ws = append(ws, found)
		}
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	for i, res := range benchmark(ws, all, o) {
		if o.out != "" {
			suffix := ""
			if o.trace {
				suffix = "-trace"
			}
			if err := writeJSON(filepath.Join(o.out, "result-"+res.Workload+suffix+".json"), res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
		}
		res.print(ws[i])
	}
}
