package main

import (
	"fmt"

	"packetshader"
	"packetshader/internal/cluster"
	"packetshader/internal/hw/nic"
	"packetshader/internal/packet"
)

// check is one named output check of the verify phase; each is one op.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func newCheck(name string, err error, okDetail string) check {
	if err != nil {
		return check{name, false, err.Error()}
	}
	return check{name, true, okDetail}
}

// verify is the untimed phase that checks the program's outputs before
// anything is measured. It installs the TX tap; timed passes do not.
func (w *workload) verify(seed int64) (checks []check) {
	defer func() {
		if r := recover(); r != nil {
			checks = append(checks, check{"verify-ran", false, fmt.Sprintf("panic: %v", r)})
		}
	}()
	w.setProcs()
	if w.fabric != nil {
		return w.verifyFabric(seed)
	}
	ri, err := w.router(seed, nil)
	if err != nil {
		return []check{newCheck("build", err, "")}
	}
	inst := ri.inst
	defer inst.Env.Close()

	// The TTL the source sends, read off a frame it generates.
	probe := packet.NewBufPool(2048).Get(inst.Router.Cfg.PacketSize)
	inst.Router.Source().(nic.FrameSource).Fill(probe, 0, 0, 0)
	srcTTL := probe.Data[packet.EthHdrLen+8]

	var seen, checked int
	var frameErr error
	inst.TapTx(func(b *packet.Buf, _ packetshader.Time) {
		seen++
		if seen%w.tapStride != 0 || frameErr != nil {
			return
		}
		checked++
		if err := w.check(b.Data, srcTTL); err != nil {
			frameErr = fmt.Errorf("frame %d: %w", seen, err)
		}
	})
	ctl, err := ri.arm()
	if err != nil {
		return []check{newCheck("attach", err, "")}
	}
	inst.Run(min(verifyWindow, w.window))

	if frameErr == nil && checked == 0 {
		frameErr = fmt.Errorf("no frame reached the tap (%d transmitted)", seen)
	}
	checks = append(checks, newCheck("tx-frames", frameErr,
		fmt.Sprintf("%d of %d transmitted frames checked", checked, seen)))
	rx, _, tx, txDrop := inst.Router.Engine.AggregateStats()
	var consErr error
	if drops := inst.Router.Stats.Drops; rx < tx+txDrop+drops {
		consErr = fmt.Errorf("rx %d < tx %d + tx-dropped %d + app drops %d", rx, tx, txDrop, drops)
	}
	checks = append(checks, newCheck("packet-conservation", consErr, fmt.Sprintf("rx %d >= tx %d + drops", rx, tx)))
	if ctl != nil {
		var ctlErr error
		if errs := ctl.Errors(); len(errs) > 0 {
			ctlErr = fmt.Errorf("%d commands failed, first: %s", len(errs), errs[0])
		} else if ctl.RoutesApplied() == 0 {
			ctlErr = fmt.Errorf("no route update applied")
		}
		checks = append(checks, newCheck("ctrl-script", ctlErr, fmt.Sprintf("%d routes applied, no errors", ctl.RoutesApplied())))
	}
	return checks
}

func (w *workload) verifyFabric(seed int64) []check {
	cfg := w.fabric(seed)
	res, err := cluster.RunFabric(cfg)
	if err != nil {
		return []check{newCheck("run", err, "")}
	}
	var consErr error
	switch {
	case res.Delivered+res.RouteDrops+res.NodeDrops > res.Batches:
		consErr = fmt.Errorf("delivered %d + drops %d+%d > batches %d", res.Delivered, res.RouteDrops, res.NodeDrops, res.Batches)
	case res.DeliveredGbps <= 0:
		consErr = fmt.Errorf("nothing delivered")
	}
	checks := []check{newCheck("batch-conservation", consErr,
		fmt.Sprintf("%d of %d batches delivered", res.Delivered, res.Batches))}
	// Any worker count must give the serial schedule's result, field for field.
	other := cfg
	other.Workers = 3 - cfg.Workers
	ores, err := cluster.RunFabric(other)
	if err == nil && ores != res {
		err = fmt.Errorf("workers=%d gives %+v, workers=%d gives %+v", other.Workers, ores, cfg.Workers, res)
	}
	return append(checks, newCheck("par-equals-serial", err, "FabricResult equal for 1 and 2 workers"))
}
