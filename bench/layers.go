package main

import "fmt"

// perLayer assembles the traced run's per-layer metrics: what the traced
// passes measured in situ, the micro-drivers, and the comparisons between
// interleaved kinds of pass, each kind at its quiet-host cost.
func (r *run) perLayer(res *result) map[string]float64 {
	l := map[string]float64{}
	for k, v := range r.extra {
		l[k] = v
	}
	// In-situ figures come from the fastest traced pass, whole, so that
	// the shares of one window add up to exactly 100.
	best := fastest(r.traced)
	for k, v := range best.layer {
		l[k] = v
	}
	own := quietNs(r.plain)
	l["trace.overhead_pct"] = 100 * (quietNs(r.traced)/own - 1)
	if len(r.obsOn) > 0 {
		l["obs.on_overhead_pct"] = 100 * (quietNs(r.obsOn)/own - 1)
	}
	if len(r.sib) > 0 {
		// The sibling's passes are traced like the run's own, so the two
		// sides of a comparison carry the same decorators.
		own, other := quietNs(r.traced), quietNs(r.sib)
		switch {
		case r.w.fabric != nil && r.w.workers == 1:
			l["cluster.par_speedup"] = own / other
		case r.w.fabric != nil:
			l["cluster.par_speedup"] = other / own
		default:
			// ipv4-64B and ipv4-churn: whichever side the run is on, the
			// control plane's figures are the churn side's.
			churn, churnNs, quietIPv4 := best, own, other
			if r.sibling.name == "ipv4-churn" {
				churn, churnNs, quietIPv4 = fastest(r.sib), other, own
				// (Not ctrl.apply_share_pct: the shares are of this window.)
				for _, k := range []string{"ctrl.apply_ns", "ctrl.routes_per_sim_ms", "ctrl.errors", "lookup4.cells_per_update"} {
					l[k] = churn.layer[k]
				}
			}
			if routes := churn.layer["ctrl.routes_per_sim_ms"] * res.WindowNs / 1e6; routes > 0 {
				l["ctrl.churn_cost_ns"] = (churnNs - quietIPv4) / routes
			}
		}
	}
	l["host.cal_alu_ms"], l["host.cal_mem_ms"] = res.CalALUMs, res.CalMemMs
	l["host.nproc"], l["host.gomaxprocs"] = float64(res.Env.NProc), float64(res.Env.GOMAXPROCS)
	return l
}

// layerTable renders "wall-ns per simulated packet, by layer" (per
// simulated batch for the fabric rows). In-situ rows are measured;
// rows marked est. are micro-driver prices times the window's counts.
func (r *run) layerTable(l map[string]float64) []string {
	var rows []string
	row := func(name string, ns, total float64, how string) {
		rows = append(rows, fmt.Sprintf("%-34s %10.1f %6.1f%%  %s", name, ns, 100*ns/total, how))
	}
	if r.w.fabric != nil {
		total := l["cluster.batch_ns"]
		if total == 0 {
			return nil
		}
		cfg := r.w.fabric(r.o.seed)
		batches := float64(r.plain[0].fabric.Batches)
		windows := float64(cfg.Horizon / cfg.LinkLatency)
		links := l["sim.link_ns"] * l["cluster.forwards_per_batch"]
		wins := l["sim.window_ns"] * windows / batches
		rows = append(rows, fmt.Sprintf("%-34s %10s %7s  %s", "layer (per simulated batch)", "wall ns", "share", "how"))
		row("window (cluster + sim)", total, total, "measured: window wall / batches")
		row("  est. sim link send+deliver", links, total, "sim.link_ns x forwards per batch (upper bound: local hops send nothing)")
		row("  est. sim.World windows", wins, total, fmt.Sprintf("sim.window_ns x %.0f windows / batches", windows))
		row("  rest: procs, queues, timer wheel", total-links-wins, total, "remainder")
		return rows
	}
	best := fastest(r.traced)
	if best.pkts == 0 {
		return nil
	}
	per := func(k spanKind) float64 { return best.kindNs[k] / best.pkts }
	total := best.windowNs / best.pkts
	fetch, transmit := l["nic.fetch_ns"], l["nic.transmit_ns"]*l["nic.tx_pkts"]/l["nic.rx_pkts"]
	rows = append(rows, fmt.Sprintf("%-34s %10s %7s  %s", "layer (per simulated packet)", "wall ns", "share", "how"))
	row("pktgen: Source.Fill", per(kindFill), total, "measured in situ, 1 call in 64 timed")
	row("  est. packet render + RSS hash", l["packet.render_ns"]+l["nic.toeplitz_ns"], total, "micro-drivers, inside Fill")
	row("apps: PreShade", per(kindPreShade), total, "measured in situ, per chunk")
	row("  est. packet decode", l["packet.decode_ns"], total, "micro-driver, inside PreShade")
	row("apps: RunKernel (lookup / crypto)", per(kindKernel), total, "measured in situ, per chunk")
	row("apps: PostShade", per(kindPostShade), total, "measured in situ, per chunk")
	row("ctrl: ApplyRoutes", per(kindApply), total, "measured in situ, per batch")
	row("residual: sim + hw/* + pktio + core", per(kindWindow), total, "window self time")
	row("  est. hw/nic Fetch (+ hw/pcie)", fetch, total, "nic.fetch_ns x packets fetched")
	row("  est. hw/nic Transmit (+ hw/pcie)", transmit, total, "nic.transmit_ns x packets transmitted")
	row("  rest: core, pktio, sim hand-offs", per(kindWindow)-fetch-transmit, total, "remainder")
	row("window", total, total, "wall time / packets fetched in the window")
	return rows
}

// fastest is the pass that stands for its kind in a traced run.
func fastest(ps []pass) *pass {
	best := &ps[0]
	for i := range ps {
		if ps[i].windowNs < best.windowNs {
			best = &ps[i]
		}
	}
	return best
}
