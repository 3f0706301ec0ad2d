// Fixture for the mapiter analyzer: map-range loops whose bodies emit
// output or schedule simulation work are order-sensitive and flagged;
// order-insensitive loops (sums, key collection) are not.
package mapiter

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"packetshader/internal/experiments"
	"packetshader/internal/sim"
)

func emits(m map[string]int) string {
	for k, v := range m { // want `range over map map\[string\]int but the loop body emits output \(fmt\.Printf\)`
		fmt.Printf("%s=%d\n", k, v)
	}
	for k, v := range m { // want `emits output \(fmt\.Fprintf\)`
		fmt.Fprintf(os.Stderr, "%s=%d\n", k, v)
	}
	var sb strings.Builder
	for k := range m { // want `emits output \(\*strings\.Builder\.WriteString\)`
		sb.WriteString(k)
	}
	return sb.String()
}

// A result row appended per map entry lands in a random row order.
func rows(r *experiments.Result, m map[string]float64) {
	for k, v := range m { // want `emits output \(\*packetshader/internal/experiments\.Result\.AddRow\)`
		r.AddRow(experiments.Label(k), experiments.Num("%.1f", v))
	}
}

func schedules(env *sim.Env, m map[string]sim.Duration) {
	for _, d := range m { // want `schedules simulation work \(sim\.After\)`
		env.After(d, func() {})
	}
}

// Order-sensitivity is detected even inside nested function literals,
// which inherit the iteration's visit order.
func nested(env *sim.Env, m map[string]sim.Duration) {
	for _, d := range m { // want `schedules simulation work \(sim\.Go\)`
		f := func() { env.Go("worker", func(p *sim.Proc) { p.Sleep(d) }) }
		f()
	}
}

func good(m map[string]int) int {
	total := 0
	for _, v := range m { // commutative accumulation: not flagged
		total += v
	}
	keys := make([]string, 0, len(m))
	for k := range m { // key collection: not flagged
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys { // slice range: out of scope
		fmt.Println(k, m[k])
	}
	return total
}

func suppressed(m map[string]int) {
	//pslint:ignore mapiter diagnostics dump, order irrelevant to tests
	for k := range m {
		fmt.Println(k)
	}
}
