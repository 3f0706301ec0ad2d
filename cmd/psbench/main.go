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
// fig11a-fig11d, fig12, ablation, cluster, fabric, leafspine, faults,
// churn.
//
// Each experiment point is an independent deterministic simulation, so
// points run in parallel across -j workers; results are merged in job
// order and the output is byte-identical to -j 1. Within the fabric
// experiment, -p additionally advances the world's per-node partitions
// on N goroutines under conservative link lookahead; output is
// byte-identical to -p 1.
package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"packetshader/internal/experiments"
)

const usage = `usage: psbench [flags] [experiment ...]

  -j N       run up to N simulation jobs in parallel
             (default: min(GOMAXPROCS, runnable jobs of the selection))
  -p N       advance partitioned worlds (fabric) on N goroutines (default: 1)
  -list      list available experiments
  -metrics   dump per-run metrics (counters, latency histograms, occupancy)

With no experiments given, runs all of them. Output is byte-identical
for any -j and any -p.`

// parseArgs handles flags and positionals in any order ("psbench all
// -j 8" must work; the stdlib flag package stops at the first
// positional argument). jobs == 0 means no explicit -j: the caller
// derives the default from the selection.
func parseArgs(argv []string) (ids []string, jobs, parts int, list, metrics bool, err error) {
	parts = 1
	fail := func(format string, args ...any) ([]string, int, int, bool, bool, error) {
		return nil, 0, 0, false, false, fmt.Errorf(format, args...)
	}
	for i := 0; i < len(argv); i++ {
		a := argv[i]
		switch {
		case a == "-h" || a == "--help" || a == "-help":
			fmt.Println(usage)
			os.Exit(0)
		case a == "-list" || a == "--list":
			list = true
		case a == "-metrics" || a == "--metrics":
			metrics = true
		case a == "-j" || a == "--j":
			i++
			if i >= len(argv) {
				return fail("-j requires an argument")
			}
			jobs, err = strconv.Atoi(argv[i])
			if err != nil || jobs < 1 {
				return fail("-j: invalid worker count %q", argv[i])
			}
		case strings.HasPrefix(a, "-j=") || strings.HasPrefix(a, "--j="):
			v := a[strings.Index(a, "=")+1:]
			jobs, err = strconv.Atoi(v)
			if err != nil || jobs < 1 {
				return fail("-j: invalid worker count %q", v)
			}
		case a == "-p" || a == "--p":
			i++
			if i >= len(argv) {
				return fail("-p requires an argument")
			}
			parts, err = strconv.Atoi(argv[i])
			if err != nil || parts < 1 {
				return fail("-p: invalid partition worker count %q", argv[i])
			}
		case strings.HasPrefix(a, "-p=") || strings.HasPrefix(a, "--p="):
			v := a[strings.Index(a, "=")+1:]
			parts, err = strconv.Atoi(v)
			if err != nil || parts < 1 {
				return fail("-p: invalid partition worker count %q", v)
			}
		case strings.HasPrefix(a, "-"):
			return fail("unknown flag %s", a)
		default:
			ids = append(ids, a)
		}
	}
	return ids, jobs, parts, list, metrics, nil
}

func main() {
	ids, jobs, parts, list, metrics, err := parseArgs(os.Args[1:])
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
	if metrics {
		experiments.SetMetricsWriter(os.Stdout)
	}
	experiments.SetPartitionWorkers(parts)
	if len(ids) == 0 {
		ids = []string{"all"}
	}
	// Default -j: a pool wider than the selection's runnable jobs can
	// never fill, and a pool wider than GOMAXPROCS oversubscribes the
	// host (measurably slower on small machines), so cap at both. The
	// run header records the chosen value either way.
	jdesc := fmt.Sprintf("%d", jobs)
	if jobs == 0 {
		runnable, err := experiments.RunnableJobs(ids...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		jobs = runtime.GOMAXPROCS(0)
		if runnable < jobs {
			jobs = runnable
		}
		jdesc = fmt.Sprintf("%d (auto: min of GOMAXPROCS %d, %d runnable jobs)",
			jobs, runtime.GOMAXPROCS(0), runnable)
	}
	start := time.Now()
	if err := experiments.NewRunner(jobs).Run(os.Stdout, ids...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "[%s done in %v, -j %s -p %d]\n",
		strings.Join(ids, " "), time.Since(start).Round(time.Millisecond), jdesc, parts)
}
