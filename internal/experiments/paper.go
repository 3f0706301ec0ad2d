package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// The paper's numbers, each in one place. A PaperPoint is one value the
// paper states, keyed by the cell of a result table it describes:
// (experiment id, row, column). A row key names the row whose leading
// cells read it ("32768 32" in fig11c); "*" covers every row of the
// column that no other point names. A column "A/B" is the ratio of
// columns A and B in the same row. table1's and table3's paper columns, the notes Print writes
// under each result and TestPaperPoints all read this table.
var paperTable = []PaperPoint{
	at("table1", "256", "Host-to-device", 55), at("table1", "256", "Device-to-host", 63),
	at("table1", "1K", "Host-to-device", 185), at("table1", "1K", "Device-to-host", 211),
	at("table1", "4K", "Host-to-device", 759), at("table1", "4K", "Device-to-host", 786),
	at("table1", "16K", "Host-to-device", 2069), at("table1", "16K", "Device-to-host", 1743),
	at("table1", "64K", "Host-to-device", 4046), at("table1", "64K", "Device-to-host", 2848),
	at("table1", "256K", "Host-to-device", 5142), at("table1", "256K", "Device-to-host", 3242),
	at("table1", "1M", "Host-to-device", 5577), at("table1", "1M", "Device-to-host", 3394),

	at("launch", "1", "Latency (us)", 3.8), at("launch", "4096", "Latency (us)", 4.1),

	// The GPU passes one X5550 beyond ≈320 packets, two beyond ≈640, and
	// peaks near ten.
	at("fig2", "320", "GTX480/1x X5550", 1), at("fig2", "640", "GTX480/2x X5550", 1),
	at("fig2", "65536", "GTX480/1x X5550", 10),

	at("table3", "skb initialization", "Share", 4.9), at("table3", "skb (de)allocation", "Share", 8.0),
	at("table3", "memory subsystem", "Share", 50.2), at("table3", "NIC device driver", "Share", 13.3),
	at("table3", "others", "Share", 9.8), at("table3", "compulsory cache misses", "Share", 13.8),
	at("table3", "total", "Share", 100),

	at("fig5", "1", "Forwarding Gbps", 0.78), at("fig5", "64", "Forwarding Gbps", 10.5),
	at("fig5", "64", "speedup", 13.5),

	span("fig6", "*", "RX", 53.1, 59.9).within(53, 60.4), span("fig6", "*", "TX", 79.3, 80).within(78.6, 80.5),
	at("fig6", "64", "Forward", 41.1), span("fig6", "*", "Forward", 40, math.Inf(1)).within(39.6, 44.5),
	span("fig6", "*", "Node-crossing", 40, math.Inf(1)).within(39.6, 44.5),

	at("numa", "NUMA-aware", "Gbps", 40),
	span("numa", "NUMA-blind", "Gbps", math.Inf(-1), 25).within(29, 34).because("5, remote access charged on the packet path only"),

	at("fig11a", "64", "CPU-only", 28),
	at("fig11a", "64", "CPU+GPU", 39).within(33, 41).because("1, worker-master queueing"),
	span("fig11a", "*", "CPU-only", 40, 41).within(38, 44), span("fig11a", "*", "CPU+GPU", 40, 41).within(38, 44),

	at("fig11b", "64", "CPU-only", 8), at("fig11b", "64", "CPU+GPU", 38.2).within(34.4, 41),
	span("fig11b", "*", "CPU+GPU", 40, 41).within(38, 44),

	at("fig11c", "32768 32", "CPU+GPU", 32),

	at("fig11d", "64", "CPU+GPU", 10.2), at("fig11d", "1514", "CPU+GPU", 20).within(18.5, 22),
	span("fig11d", "*", "CPU-only", 2.9, 5.7),
	at("fig11d", "*", "CPU+GPU/CPU-only", 3.5).within(3, 5).because("6, CPU+GPU plateaus by 256B, CPU-only does not"),

	span("fig12", "*", "CPU+GPU", 200, 400).within(100, 400).because("3, no generator-side delay modelled"),
}

// paperTol is each figure's plain tolerance: how far, as a fraction of
// the paper's value, a point may sit from it without naming a known
// deviation (EXPERIMENTS.md).
var paperTol = map[string]float64{
	"table1": 0.15, "launch": 0.02, "fig2": 0.25, "table3": 0.015, "fig5": 0.05, "fig6": 0.01,
	"numa": 0.05, "fig11a": 0.1, "fig11b": 0.1, "fig11c": 0.1, "fig11d": 0.1, "fig12": 0.1,
}

// A PaperPoint is one entry of paperTable; Result.Points adds the
// measured cells its key names.
type PaperPoint struct {
	ID, Row, Col string
	// Lo and Hi are the paper's value (Lo = Hi) or the range it states;
	// an infinite end reads "above Lo" or "below Hi".
	Lo, Hi float64
	// Band is the measured range a cell must stay in. Zero means the
	// figure's plain tolerance around [Lo, Hi]; a wider band names the
	// known deviation it rests on in Deviation.
	Band      [2]float64
	Deviation string

	Rows  []string // the first cell of each row the key names in a Result
	Cells []Cell   // the measured cell of each of those rows
}

func at(id, row, col string, v float64) PaperPoint { return span(id, row, col, v, v) }

func span(id, row, col string, lo, hi float64) PaperPoint {
	return PaperPoint{ID: id, Row: row, Col: col, Lo: lo, Hi: hi}
}

func (p PaperPoint) within(lo, hi float64) PaperPoint { p.Band = [2]float64{lo, hi}; return p }

func (p PaperPoint) because(deviation string) PaperPoint { p.Deviation = deviation; return p }

// plain is the band the figure's plain tolerance allows.
func (p PaperPoint) plain() (lo, hi float64) {
	t := paperTol[p.ID]
	return p.Lo * (1 - t), p.Hi * (1 + t)
}

// band is the range every measured cell must lie in.
func (p PaperPoint) band() (lo, hi float64) {
	if p.Band == [2]float64{} {
		return p.plain()
	}
	return p.Band[0], p.Band[1]
}

// relErr is v's signed distance from the paper's range, as a fraction
// of the end it lies beyond; zero inside the range.
func (p PaperPoint) relErr(v float64) float64 {
	switch {
	case v < p.Lo:
		return v/p.Lo - 1
	case v > p.Hi:
		return v/p.Hi - 1
	}
	return 0
}

// paperValue is the paper's one value at a key of paperTable.
func paperValue(id, row, col string) float64 {
	for _, p := range paperTable {
		if p.ID == id && p.Row == row && p.Col == col {
			return p.Lo
		}
	}
	panic(fmt.Sprintf("experiments: no paper point %s %s %s", id, row, col))
}

// Points returns r's entries of paperTable, each with the cells its key
// names in r.
func (r *Result) Points() []PaperPoint {
	var out []PaperPoint
	for _, p := range paperTable {
		if p.ID != r.ID {
			continue
		}
		for _, row := range r.Rows {
			if c, ok := r.column(row, p.Col); ok && p.names(row) {
				p.Rows = append(p.Rows, row[0].text())
				p.Cells = append(p.Cells, c)
			}
		}
		out = append(out, p)
	}
	return out
}

// names reports whether p's row key names row.
func (p PaperPoint) names(row []Cell) bool {
	if p.Row != "*" {
		return rowIs(row, p.Row)
	}
	for _, q := range paperTable {
		if q.ID == p.ID && q.Col == p.Col && q.Row != "*" && rowIs(row, q.Row) {
			return false
		}
	}
	return true
}

func rowIs(row []Cell, key string) bool { return strings.HasPrefix(rowText(row)+" ", key+" ") }

func rowText(row []Cell) string {
	var s []string
	for _, c := range row {
		s = append(s, c.text())
	}
	return strings.Join(s, " ")
}

// column is row's cell under header col, or the ratio of two such cells
// for col "A/B".
func (r *Result) column(row []Cell, col string) (Cell, bool) {
	if i := slices.Index(r.Header, col); i >= 0 && i < len(row) {
		return row[i], true
	}
	a, b, ok := strings.Cut(col, "/")
	if !ok {
		return Cell{}, false
	}
	x, okA := r.column(row, a)
	y, okB := r.column(row, b)
	return Num("%.2f", x.V/y.V), okA && okB
}

// note is p's line under a result of rows rows: the paper's value, the
// measured one (their range under a row wildcard), the signed error
// farthest from the paper, the band and the deviation.
func (p PaperPoint) note(header0 string, rows int) string {
	if len(p.Cells) == 0 {
		return fmt.Sprintf("paper point %s %s names no cell", p.Row, p.Col)
	}
	f := func(v float64) string { return Cell{V: v, verb: p.Cells[0].verb}.text() }
	paper := f(p.Lo) + ".." + f(p.Hi)
	switch {
	case p.Lo == p.Hi:
		paper = f(p.Lo)
	case math.IsInf(p.Hi, 1):
		paper = "above " + f(p.Lo)
	case math.IsInf(p.Lo, -1):
		paper = "below " + f(p.Hi)
	}
	where := p.Row
	if p.Row == "*" {
		where = "each " + header0
		if len(p.Cells) < rows {
			where = "each other " + header0
		}
	}
	lo, hi, worst := p.Cells[0], p.Cells[0], 0.0
	for _, c := range p.Cells {
		if c.V < lo.V {
			lo = c
		}
		if c.V > hi.V {
			hi = c
		}
		if e := p.relErr(c.V); math.Abs(e) > math.Abs(worst) {
			worst = e
		}
	}
	measured := lo.text()
	if hi.text() != measured {
		measured += ".." + hi.text()
	}
	band := fmt.Sprintf("±%.3g%%", paperTol[p.ID]*100)
	if p.Band != [2]float64{} {
		band = f(p.Band[0]) + ".." + f(p.Band[1])
	}
	s := fmt.Sprintf("paper %s at %s %s: %s (%+.1f%%, band %s", paper, where, p.Col, measured, worst*100, band)
	if p.Deviation != "" {
		s += "; deviation " + p.Deviation
	}
	return s + ")"
}
