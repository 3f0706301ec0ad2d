package experiments

import (
	"testing"

	"packetshader/internal/model"
	"packetshader/internal/pktio"
	"packetshader/internal/sim"
)

// TestIOPlacementBindsEveryQueueOnce walks the worker enumeration
// ioHarness uses, for the engine shapes the §4 figures build: every
// (port, queue) must be opened by exactly one worker — an RX queue has
// one owner (Figure 8b), and an unpolled queue is offered load nobody
// fetches — and every worker must get at least one interface, because
// a pktio Worker idles on its first.
func TestIOPlacementBindsEveryQueueOnce(t *testing.T) {
	shape := func(nodes, ports, queues int) pktio.Config {
		cfg := pktio.DefaultConfig()
		cfg.Nodes, cfg.Ports, cfg.QueuesPerPort = nodes, ports, queues
		return cfg
	}
	machine := func(queues int) pktio.Config {
		return shape(model.NumNodes, model.NumPorts, queues)
	}
	for _, c := range []struct {
		name  string
		cfg   pktio.Config
		place ioPlacement
	}{
		{"table3", shape(1, 1, 1), numaAware},
		{"fig5", shape(1, 2, 1), numaAware},
		{"fig6 / numa aware", machine(model.CoresPerNode), numaAware},
		{"numa blind", machine(model.CoresPerNode * model.NumNodes), numaBlind},
		// On one node the two placements are the same binding.
		{"table3 blind", shape(1, 1, 1), numaBlind},
		{"fig5 blind", shape(1, 2, 1), numaBlind},
		// The router's own shape: fewer queues than cores.
		{"default", pktio.DefaultConfig(), numaAware},
	} {
		owners := make([]int, c.cfg.Ports*c.cfg.QueuesPerPort)
		for n := 0; n < c.cfg.Nodes; n++ {
			for w := 0; w < ioWorkersPerNode(c.cfg); w++ {
				lo, hi, queue := c.place(c.cfg, n, w)
				if lo >= hi {
					t.Errorf("%s: worker %d of node %d has no interface", c.name, w, n)
				}
				if lo < 0 || hi > c.cfg.Ports || queue < 0 || queue >= c.cfg.QueuesPerPort {
					t.Fatalf("%s: worker %d of node %d bound to queue %d of ports %d…%d, outside the engine",
						c.name, w, n, queue, lo, hi-1)
				}
				for port := lo; port < hi; port++ {
					owners[port*c.cfg.QueuesPerPort+queue]++
				}
			}
		}
		for i, n := range owners {
			if n != 1 {
				t.Errorf("%s: queue %d of port %d has %d owners, want 1",
					c.name, i%c.cfg.QueuesPerPort, i/c.cfg.QueuesPerPort, n)
			}
		}
	}
}

// TestDriversHoldTheirExactValues pins what the device drivers of
// table1, fig2, table3 and fig5 measure before the golden files round
// it: each table1 and fig2 cell's V (a function of the copy durations
// and of the summed launch round trips alone), and the engine's
// counters, Table 3 bins, blocked time and delivered rate after the
// table3 run and the fig5 runs at batch 1 and 64. A change to how a
// driver steps its device that moves one picosecond shows here.
func TestDriversHoldTheirExactValues(t *testing.T) {
	cells := map[string][][]float64{
		"table1": {
			{51.77850047440028, 59.89119454391218},
			{201.71175272345337, 227.6732373222248},
			{730.6188891382156, 759.8275325064643},
			{2120.953647246728, 1828.0022180593319},
			{4045.6044115459235, 2818.611818196441},
			{5232.703333902161, 3260.308909244566},
			{5646.948379511943, 3393.2455406471254},
		},
		"fig2": {
			{0.8320502641564578}, {1.6593881752828323}, {3.3000862534262567},
			{6.461680781610966}, {7.891935724129495}, {11.81456159484767},
			{14.16072032575144}, {20.168316815107644}, {31.19791524806029},
			{42.939140561360496}, {59.825468106354286}, {66.34855778284923},
		},
	}
	for id, want := range cells {
		r := goldenResult(t, id)
		for i, row := range want {
			// table1's measured columns follow the label; fig2's GPU
			// column is its last.
			at := 1
			if id == "fig2" {
				at = len(r.Rows[i]) - 1
			}
			for j, v := range row {
				if got := r.Rows[i][at+j].V; got != v {
					t.Errorf("%s row %d column %d: %v, want %v", id, i, at+j, got, v)
				}
			}
		}
	}

	type engineValues struct {
		rx, rxDropped, tx, txDropped uint64
		bins                         pktio.Breakdown
		blocked                      sim.Duration
		gbps                         float64
	}
	read := func(e *pktio.Engine) engineValues {
		var v engineValues
		v.rx, v.rxDropped, v.tx, v.txDropped = e.AggregateStats()
		v.bins, v.blocked, v.gbps = e.RxBreakdown(), e.Blocked(), e.DeliveredGbps(0)
		return v
	}
	// table3's and fig5's engines, as those experiments build them.
	table3 := pktio.DefaultConfig()
	table3.Nodes, table3.Ports, table3.QueuesPerPort = 1, 1, 1
	table3.Mode = pktio.ModeSkb
	fig5 := func(batch int) *pktio.Engine {
		cfg := pktio.DefaultConfig()
		cfg.Nodes, cfg.Ports, cfg.QueuesPerPort = 1, 2, 1
		return ioHarness(cfg, numaAware, wlForward, batch, 64, 20*sim.Millisecond)
	}
	for _, r := range []struct {
		name      string
		got, want engineValues
	}{
		{"table3", read(ioHarness(table3, numaAware, wlRxOnly, 64, 64, 10*sim.Millisecond)),
			engineValues{rx: 9408, rxDropped: 129803, bins: pktio.Breakdown{
				SkbInit: 1.2907775999997712e+06, SkbAlloc: 2.107392e+06, MemSubsystem: 1.3223884799997803e+07,
				Driver: 3.5035391999994325e+06, Others: 2.5815551999995424e+06, CacheMisses: 3.6352511999994214e+06}}},
		{"fig5 batch 1", read(fig5(1)), engineValues{rx: 22134, rxDropped: 541931, tx: 22133, gbps: 0.7790816}},
		{"fig5 batch 64", read(fig5(64)), engineValues{rx: 297984, rxDropped: 266049, tx: 297920, gbps: 10.484531199999997}},
	} {
		if r.got != r.want {
			t.Errorf("%s: %+v, want %+v", r.name, r.got, r.want)
		}
	}
}
