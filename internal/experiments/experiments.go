// Package experiments regenerates every table and figure of the paper's
// evaluation (plus the §2 microbenchmarks and the §4/§5 ablations) on
// the simulated testbed. Each experiment returns a Result whose rows
// mirror the series the paper reports, annotated with the paper's
// numbers where it states them, so EXPERIMENTS.md can record
// paper-vs-measured side by side.
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
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Note appends a footnote (typically the paper's reference numbers).
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Print renders the result as an aligned text table.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i < len(widths) {
				sb.WriteString(fmt.Sprintf("%-*s  ", widths[i], c))
			} else {
				sb.WriteString(c)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
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
	{ID: "ablation", Run: ablation},
	{ID: "cluster", Run: clusterScaling},
	{ID: "fabric", Run: fabricScaling},
	{ID: "leafspine", Run: leafSpineScaling},
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
