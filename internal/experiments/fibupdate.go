package experiments

import (
	"fmt"

	"packetshader/internal/apps"
	"packetshader/internal/core"
	"packetshader/internal/model"
	"packetshader/internal/pktgen"
	"packetshader/internal/route"
	"packetshader/internal/sim"

	lookupv4 "packetshader/internal/lookup/ipv4"
)

// FIBUpdate compares the two §7 FIB-update strategies under a BGP-like
// update churn while the data path forwards at full load: double
// buffering (rebuild the whole DIR-24-8 table off to the side, swap)
// versus incremental update (patch only the affected cells). The table
// reports the control-plane cost per update and the data-path
// throughput sustained during churn.
func FIBUpdate() *Result { return runSolo(fibUpdate) }

func fibUpdate(c *Ctx) *Result {
	r := &Result{
		ID:     "fibupdate",
		Title:  "FIB update strategies under churn (§7)",
		Header: []string{"Strategy", "Updates applied", "Cells touched/update", "Forwarding Gbps"},
	}
	entries, _ := BGPFixture()
	// The two strategies run as independent jobs; both only read the
	// shared fixture (base table + churn set are subslices, and each job
	// builds its own lookup structures from them).
	rows := MapPoints(c, 2, func(i int, _ *Point) []string {
		base := entries[:100000] // churn set drawn from the rest
		churn := entries[100000:101000]
		if i == 0 {
			return fibIncremental(base, churn)
		}
		return fibDoubleBuffer(base, churn)
	})
	r.Rows = append(r.Rows, rows...)
	r.Note("both keep the data path consistent; incremental touches ~2^(24-len) cells per update,")
	r.Note("double buffering pays a full 16M-cell rebuild per batch but never patches live cells")
	return r
}

// fibIncremental patches cells in place while traffic flows.
func fibIncremental(base, churn []route.Entry) []string {
	dyn, err := lookupv4.NewDynamic(base)
	if err != nil {
		panic(err)
	}
	env := sim.NewEnv()
	defer env.Close()
	cfg := core.DefaultConfig()
	cfg.PacketSize = 64
	app := &apps.IPv4Fwd{Table: &dyn.Table, NumPorts: model.NumPorts}
	router := core.New(env, cfg, app)
	router.SetSource(&pktgen.UDP4Source{Size: 64, Seed: 41, Table: base})
	router.Start()
	applied := 0
	var cells uint64
	env.Go("control-plane", func(p *sim.Proc) {
		for i := 0; ; i = (i + 1) % len(churn) {
			p.Sleep(20 * sim.Microsecond) // ≈50k updates/s of churn
			e := churn[i]
			if i%2 == 0 {
				if err := dyn.Insert(e); err != nil {
					return
				}
			} else {
				if _, err := dyn.Remove(e.Prefix); err != nil {
					return
				}
			}
			cells += uint64(1) << (24 - min(int(e.Prefix.Len), 24))
			applied++
		}
	})
	env.After(4*sim.Millisecond, router.ResetMeasurement)
	env.Run(sim.Time(8 * sim.Millisecond))
	return []string{"incremental", fmt.Sprintf("%d", applied),
		fmt.Sprintf("%.0f", float64(cells)/float64(applied)),
		fmt.Sprintf("%.1f", router.DeliveredGbps())}
}

// fibDoubleBuffer has the data path read one generation; each update
// batch triggers a full rebuild published atomically. (Batch size 100:
// rebuilding 100k prefixes per single update would be absurd, which is
// exactly the strategy's trade-off.)
func fibDoubleBuffer(base, churn []route.Entry) []string {
	rib := route.NewRIB()
	for _, e := range base {
		rib.Add(e.Prefix, e.NextHop)
	}
	first, err := lookupv4.Build(base)
	if err != nil {
		panic(err)
	}
	fib := route.NewFIB(first)
	env := sim.NewEnv()
	defer env.Close()
	cfg := core.DefaultConfig()
	cfg.PacketSize = 64
	app := &apps.IPv4Fwd{Table: fib.Active(), NumPorts: model.NumPorts}
	router := core.New(env, cfg, app)
	router.SetSource(&pktgen.UDP4Source{Size: 64, Seed: 41, Table: base})
	router.Start()
	applied := 0
	env.Go("control-plane", func(p *sim.Proc) {
		for i := 0; applied < 200; i = (i + 1) % len(churn) {
			p.Sleep(20 * sim.Microsecond)
			e := churn[i]
			if i%2 == 0 {
				rib.Add(e.Prefix, e.NextHop)
			} else {
				rib.Remove(e.Prefix)
			}
			applied++
			if applied%100 == 0 {
				// Rebuild off the data path and swap. The rebuild
				// cost lands on the control plane, not the workers.
				next, err := lookupv4.Build(rib.Entries())
				if err != nil {
					return
				}
				fib.Publish(next)
				app.Table = fib.Active()
			}
		}
	})
	env.After(4*sim.Millisecond, router.ResetMeasurement)
	env.Run(sim.Time(8 * sim.Millisecond))
	return []string{"double-buffer (batch 100)", fmt.Sprintf("%d", applied),
		fmt.Sprintf("%d", 1<<24), // full rebuild touches every cell
		fmt.Sprintf("%.1f", router.DeliveredGbps())}
}
