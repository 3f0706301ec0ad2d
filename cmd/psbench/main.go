// Command psbench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	psbench [flags] [experiment ...]
//	psbench all
//	psbench all -j 8
//	psbench fig5 fig6 -j 4
//	psbench -list
//
// Experiments: table1, launch, fig2, table3, fig5, fig6, numa,
// fig11a-fig11d, fig12, pipeline, ablation, fabric, faults, churn.
//
// Each experiment point is an independent deterministic simulation, so
// points run in parallel across -j workers; results are merged in job
// order and the output is byte-identical to -j 1. Within the fabric
// experiment, -p additionally advances the world's per-node partitions
// on N goroutines under conservative link lookahead; output is
// byte-identical to -p 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"packetshader/internal/experiments"
)

const usage = `usage: psbench [flags] [experiment ...]

  -j N       run up to N simulation jobs in parallel (default: GOMAXPROCS)
  -p N       advance partitioned worlds (fabric) on N goroutines (default: 1)
  -list      list available experiments
  -metrics   dump per-run metrics (counters, latency histograms, occupancy)

With no experiments given, runs all of them. Output is byte-identical
for any -j and any -p.`

// parseArgs handles flags and experiment ids in any order ("psbench all
// -j 8" must work). The flag package stops at the first positional
// argument, so that argument is taken as an id and parsing resumes
// after it.
func parseArgs(argv []string) (ids []string, jobs, parts int, list, metrics bool, err error) {
	fs := flag.NewFlagSet("psbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // main prints the error and the usage text
	fs.IntVar(&jobs, "j", runtime.GOMAXPROCS(0), "")
	fs.IntVar(&parts, "p", 1, "")
	fs.BoolVar(&list, "list", false, "")
	fs.BoolVar(&metrics, "metrics", false, "")
	for err = fs.Parse(argv); err == nil && fs.NArg() > 0; err = fs.Parse(fs.Args()[1:]) {
		ids = append(ids, fs.Arg(0))
	}
	if err == nil && (jobs < 1 || parts < 1) {
		err = fmt.Errorf("-j %d -p %d: worker counts must be at least 1", jobs, parts)
	}
	return ids, jobs, parts, list, metrics, err
}

func main() {
	ids, jobs, parts, list, metrics, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		fmt.Println(usage)
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	if list {
		for _, e := range experiments.Registry {
			fmt.Println(e.ID)
		}
		return
	}
	r := experiments.NewRunner(jobs)
	r.PartitionWorkers = parts
	if metrics {
		r.Metrics = os.Stdout
	}
	if len(ids) == 0 {
		ids = []string{"all"}
	}
	start := time.Now()
	if err := r.Run(os.Stdout, ids...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "[%s done in %v, -j %d -p %d]\n",
		strings.Join(ids, " "), time.Since(start).Round(time.Millisecond), jobs, parts)
}
