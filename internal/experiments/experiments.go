// Package experiments regenerates every table and figure of the paper's
// evaluation (plus the §2 microbenchmarks and the §4/§5 ablations) on
// the simulated testbed. Each experiment returns a Result whose rows
// mirror the series the paper reports. Each number the paper states is
// one point of paperTable (paper.go), printed as a note under the
// result it describes and held to its band by TestPaperPoints.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"packetshader/internal/lookup/ipv4"
	"packetshader/internal/lookup/ipv6"
	"packetshader/internal/route"
)

// Result is one regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]Cell
	Notes  []string
	noted  []Cell // the Cell arguments of Note, in call order
}

// A Cell is one entry of a result table: a label, or a number V with
// the fmt verb that prints it. Experiments build cells and checks read
// V; only Print turns a number into text.
type Cell struct {
	V     float64
	verb  string // empty for a label
	label string
}

// Label returns a text cell.
func Label(s string) Cell { return Cell{label: s} }

// Num returns a number cell printed with verb (a float verb such as
// "%.1f", optionally with literal text around it: "%.1fx", "%.1f%%").
func Num(verb string, v float64) Cell { return Cell{V: v, verb: verb} }

// Int returns a number cell holding a count.
func Int(v int) Cell { return Num("%.0f", float64(v)) }

// text is the cell as Print writes it.
func (c Cell) text() string {
	if c.verb == "" {
		return c.label
	}
	return fmt.Sprintf(c.verb, c.V)
}

// AddRow appends a row.
func (r *Result) AddRow(cells ...Cell) { r.Rows = append(r.Rows, cells) }

// Note appends a footnote. A Cell argument prints as it would in a
// row, under %v, and its V stays readable in r.noted.
func (r *Result) Note(format string, args ...any) {
	for i, a := range args {
		if c, ok := a.(Cell); ok {
			args[i] = c.text()
			r.noted = append(r.noted, c)
		}
	}
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Print renders the result as an aligned text table, then a note per
// paper point (PaperPoint.note) and the footnotes, and returns the
// writer's error.
func (r *Result) Print(w io.Writer) error {
	table := [][]string{r.Header}
	for _, row := range r.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = c.text()
		}
		table = append(table, cells)
	}
	var widths []int
	for _, row := range table {
		for i, c := range row {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], len(c))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, row := range table {
		var line strings.Builder
		for i, c := range row {
			fmt.Fprintf(&line, "%-*s  ", widths[i], c)
		}
		b.WriteString(strings.TrimRight(line.String(), " ") + "\n")
	}
	for _, p := range r.Points() {
		fmt.Fprintf(&b, "  note: %s\n", p.note(r.Header[0], len(r.Rows)))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String()+"\n")
	return err
}

// registryEntry is one experiment: its id and its driver.
type registryEntry struct {
	ID  string
	Run func(*Ctx) *Result
}

// Registry maps experiment IDs to their drivers, in paper order.
var Registry = []registryEntry{
	{ID: "table1", Run: table1},
	{ID: "launch", Run: launchLatency},
	{ID: "fig2", Run: fig2},
	{ID: "table3", Run: table3},
	{ID: "fig5", Run: fig5},
	{ID: "fig6", Run: fig6},
	{ID: "numa", Run: numa},
	{ID: "fig11a", Run: fig11a},
	{ID: "fig11b", Run: fig11b},
	{ID: "fig11c", Run: fig11c},
	{ID: "fig11d", Run: fig11d},
	{ID: "fig12", Run: fig12},
	{ID: "pipeline", Run: pipeline},
	{ID: "workers", Run: workerCycles},
	{ID: "ablation", Run: ablation},
	{ID: "fabric", Run: fabricScaling},
	{ID: "faults", Run: faultScenario},
	{ID: "churn", Run: churn},
}

func allIDs() string {
	var s []string
	for _, e := range Registry {
		s = append(s, e.ID)
	}
	return strings.Join(s, ", ")
}

// ---------------------------------------------------------------------------
// Shared fixtures: the big routing tables are expensive to build, so
// they are constructed once (sync.Once) and shared across experiments.
// After the build they are strictly read-only — concurrent jobs on the
// worker pool look them up freely, and the sharedfixture pslint
// analyzer flags any job that writes package-level state. The first job
// to ask builds a table; jobs asking meanwhile wait on the Once.
// ---------------------------------------------------------------------------

var (
	bgpOnce    sync.Once
	bgpEntries []route.Entry
	bgpTable   *ipv4.Table

	v6Once    sync.Once
	v6Entries []route.Entry6
	v6Table   *ipv6.Table
)

// BGPFixture returns the paper-scale IPv4 table (282,797 prefixes,
// §6.2.1) and its DIR-24-8 build.
func BGPFixture() ([]route.Entry, *ipv4.Table) {
	bgpOnce.Do(func() {
		bgpEntries = route.GenerateBGPTable(route.BGPTableSize, 64, 2009)
		var err error
		bgpTable, err = ipv4.Build(bgpEntries)
		if err != nil {
			panic(err)
		}
	})
	return bgpEntries, bgpTable
}

// IPv6Fixture returns the 200,000-prefix IPv6 table (§6.2.2).
func IPv6Fixture() ([]route.Entry6, *ipv6.Table) {
	v6Once.Do(func() {
		v6Entries = route.GenerateIPv6Table(200000, 64, 2010)
		v6Table = ipv6.Build(v6Entries)
	})
	return v6Entries, v6Table
}
