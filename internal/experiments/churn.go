package experiments

import (
	"fmt"

	"packetshader"
	"packetshader/internal/core"
	"packetshader/internal/ctrl"
	"packetshader/internal/route"
	"packetshader/internal/sim"
)

// Churn storm shape: after warmup, a control script deletes a batch of
// installed prefixes every interval and re-adds the same batch on the
// next tick, alternating for the whole measurement window. Deleted
// prefixes blackhole their traffic until restored (unless a shorter
// covering prefix catches it), so the drop count is the honest
// data-path cost of each update strategy's convergence.
const (
	churnPrefixes = 10000
	churnSeed     = 77
	churnWarmup   = 2 * sim.Millisecond
	churnMeasure  = 8 * sim.Millisecond
	churnInterval = 100 * sim.Microsecond
	churnBatch    = 100 // route updates per batch
)

// churnBatches fills the measurement window, last tick excluded so the
// final batch lands inside the run.
const churnBatches = int(churnMeasure/churnInterval) - 1

// churn measures the data-path disturbance of a live route-update storm
// driven through the control plane (internal/ctrl): packets dropped and
// lookup-latency disturbance per million route updates, incremental
// DIR-24-8 patching versus full rebuild-and-swap, against a quiet
// baseline.
func churn(c *Ctx) *Result {
	r := &Result{
		ID:     "churn",
		Title:  "Route-update storm disturbance (ctrl plane, IPv4, 64B, full load)",
		Header: []string{"Strategy", "Updates", "Cells/update", "App drops", "Drops/Mupdate", "p99 us", "Gbps"},
	}
	// The three scenarios are independent jobs; each generates its own
	// table (no shared fixture). The static table takes no storm: it is
	// the quiet baseline.
	scenarios := []struct {
		name string
		mode core.FIBUpdateMode
	}{{"quiet baseline", core.FIBStatic}, {"incremental", core.FIBDynamic}, {"rebuild+swap", core.FIBRebuild}}
	rows := MapPoints(c, len(scenarios), func(i int, _ *Point) []Cell {
		return churnRun(scenarios[i].name, scenarios[i].mode)
	})
	r.Rows = append(r.Rows, rows...)
	r.Note("storm: del/re-add batches of %d prefixes every %.0fus for %.0fms, driven as ctrl script events",
		churnBatch, churnInterval.Microseconds(), float64(churnMeasure)/float64(sim.Millisecond))
	r.Note("incremental patches only the covered cells; rebuild pays 2^24 cells per batch —")
	r.Note("both converge at the batch tick on the virtual clock, so the drop cost matches and")
	r.Note("the strategies separate on control-plane cells touched per update")
	return r
}

// churnRun runs one scenario and returns its table row. The facade's
// IPv4 constructor generates the same table from the same seed, so the
// script's victims are installed prefixes.
func churnRun(name string, mode core.FIBUpdateMode) []Cell {
	inst := packetshader.Must(packetshader.IPv4(churnPrefixes, churnSeed, packetshader.WithFIBUpdate(mode)))
	defer inst.Close()
	inst.Run(churnWarmup)

	script := ctrl.NewScript() // a static table accepts no route command
	if mode != core.FIBStatic {
		script = churnScript(route.GenerateBGPTable(churnPrefixes, 64, churnSeed))
	}
	ctl, err := inst.Control(script, nil)
	if err != nil {
		panic(err)
	}
	rep := inst.Run(churnMeasure)
	if errs := ctl.Errors(); len(errs) > 0 {
		panic(fmt.Sprintf("churn: %d ctrl errors, first: %s", len(errs), errs[0]))
	}
	updates, cells := ctl.RoutesApplied(), ctl.CellsTouched()
	perUpdate, dropsPerM := Label("-"), Label("-")
	if updates > 0 {
		perUpdate = Num("%.0f", float64(cells)/float64(updates))
		dropsPerM = Num("%.0f", float64(rep.Stats.Drops)/float64(updates)*1e6)
	}
	return []Cell{Label(name), Int(int(updates)), perUpdate,
		Int(int(rep.Stats.Drops)), dropsPerM,
		Num("%.0f", rep.P99LatencyUs), Num("%.1f", rep.DeliveredGbps)}
}

// churnScript builds the storm: the same victim set (spread across the
// whole table, deduplicated by prefix) is deleted on odd ticks and
// re-added on even ones.
func churnScript(entries []route.Entry) *ctrl.Script {
	victims := make([]route.Entry, 0, churnBatch)
	seen := make(map[route.Prefix]bool, churnBatch)
	step := len(entries)/churnBatch + 1
	for i := 0; len(victims) < churnBatch && i < len(entries); i++ {
		e := entries[(i*step)%len(entries)]
		if seen[e.Prefix] {
			continue
		}
		seen[e.Prefix] = true
		victims = append(victims, e)
	}
	s := ctrl.NewScript()
	for b := 0; b < churnBatches; b++ {
		at := sim.Duration(b+1) * churnInterval
		ups := make([]ctrl.RouteUpdate, len(victims))
		for i, e := range victims {
			if b%2 == 0 {
				ups[i] = ctrl.RouteUpdate{Act: ctrl.ActDel, Prefix: e.Prefix}
			} else {
				ups[i] = ctrl.RouteUpdate{Act: ctrl.ActAdd, Prefix: e.Prefix, NextHop: e.NextHop}
			}
		}
		s.Add(ctrl.RouteBatch(at, ups))
	}
	return s
}
