package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compare reads two sets of result files — a set is at least three runs,
// collected alternately A B A B — and says, for every workload and
// end-to-end metric, whether B is the same as, better or worse than A.

// calTolerance is how far the host calibrators of the two sets may sit
// apart before a wall-clock verdict is withheld.
const calTolerance = 0.10

type verdict string

const (
	same       verdict = "same"
	better     verdict = "better"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// loadSet reads result files and groups them by workload.
func loadSet(paths []string) (map[string][]*result, error) {
	set := map[string][]*result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" || len(r.EndToEnd) == 0 {
			return nil, fmt.Errorf("%s: not a result file", p)
		}
		set[r.Workload] = append(set[r.Workload], &r)
	}
	return set, nil
}

// judge compares sample b with base sample a for a metric where lower
// (or higher) is better and a change within bound is no change.
// hostMoved says the calibrators show the two sets ran on a different
// machine state.
func judge(a, b []float64, lowerBetter bool, bound float64, hostMoved bool) (ratio float64, v verdict) {
	ma, mb := median(a), median(b)
	switch {
	case ma == mb:
		return 1, same
	case ma == 0:
		ratio = math.Inf(1)
	default:
		ratio = mb / ma
	}
	// delta is the change in the worse direction, as a share of the base.
	delta := ratio - 1
	if !lowerBetter {
		delta = -delta
	}
	switch {
	case delta > bound:
		v = worse
	case delta < -bound:
		v = better
	default:
		v = same
	}
	spread := 0.0
	if ma != 0 {
		spread = (quantile(a, 0.75) - quantile(a, 0.25)) / math.Abs(ma)
	}
	if spread <= bound && !hostMoved {
		return ratio, v
	}
	// Too noisy to tell, unless every run of one side beats every run
	// of the other.
	if quantile(b, 1) < quantile(a, 0) || quantile(b, 0) > quantile(a, 1) {
		return ratio, v
	}
	return ratio, unresolved
}

// values returns one figure of every run of a set.
func values(rs []*result, f func(*result) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return xs
}

func apart(x, y float64) bool {
	return x > 0 && y > 0 && math.Abs(x/y-1) > calTolerance
}

// compareMain implements `bench compare A... -- B...` and returns the
// exit code: non-zero only when some metric is worse or B fails more
// often than A.
func compareMain(args []string, out io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json... -- B.json...")
		return 2
	}
	setA, err := loadSet(args[:split])
	if err == nil {
		var setB map[string][]*result
		if setB, err = loadSet(args[split+1:]); err == nil {
			return compareSets(setA, setB, out)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func compareSets(setA, setB map[string][]*result, out io.Writer) int {
	names := make([]string, 0, len(setA))
	for name := range setA {
		if len(setB[name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(out, "%-16s %-24s %12s %22s %12s %22s %8s %6s  %s\n",
		"workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "B/A", "bound", "verdict")
	for _, name := range names {
		ra, rb := setA[name], setB[name]
		if len(ra) < 3 || len(rb) < 3 {
			fmt.Fprintf(out, "%-16s note: a set is at least 3 runs (A has %d, B has %d)\n", name, len(ra), len(rb))
		}
		alu := func(r *result) float64 { return r.CalALUMs }
		mem := func(r *result) float64 { return r.CalMemMs }
		cal := func(rs []*result, f func(*result) float64) float64 { return median(values(rs, f)) }
		hostMoved := apart(cal(ra, alu), cal(rb, alu)) || apart(cal(ra, mem), cal(rb, mem))
		for _, d := range endToEnd {
			metric := func(r *result) float64 { return r.EndToEnd[d.Name].Value }
			a, b := values(ra, metric), values(rb, metric)
			// Only the host clock is at the host's mercy.
			ratio, v := judge(a, b, d.Better == "lower", d.Bound, hostMoved && d.Clock == "host")
			if v == worse {
				code = 1
			}
			fmt.Fprintf(out, "%-16s %-24s %12.6g %10.5g..%-10.5g %12.6g %10.5g..%-10.5g %8.4f %5.1f%%  %s\n",
				name, d.Name, median(a), quantile(a, 0.25), quantile(a, 0.75),
				median(b), quantile(b, 0.25), quantile(b, 0.75), ratio, 100*d.Bound, v)
		}
		failRate := func(rs []*result) float64 {
			var failed, attempted int
			for _, r := range rs {
				failed += r.Failed
				attempted += r.Attempted
			}
			return float64(failed) / float64(max(attempted, 1))
		}
		fa, fb := failRate(ra), failRate(rb)
		v := same
		if fb > fa {
			v, code = worse, 1
		}
		fmt.Fprintf(out, "%-16s %-24s %12.6g %22s %12.6g %22s %8s %6s  %s\n",
			name, "failed_ops/attempted_ops", fa, "", fb, "", "", "", v)
		if hostMoved {
			fmt.Fprintf(out, "%-16s note: host calibrators differ by more than %.0f%% between the sets (alu %.3g vs %.3g ms, mem %.3g vs %.3g ms)\n",
				name, 100*calTolerance, cal(ra, alu), cal(rb, alu), cal(ra, mem), cal(rb, mem))
		}
	}
	return code
}
