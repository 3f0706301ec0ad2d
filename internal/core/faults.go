package core

import (
	"packetshader/internal/faults"
	"packetshader/internal/hw/gpu"
	"packetshader/internal/obs"
	"packetshader/internal/pktio"
	"packetshader/internal/sim"
)

// ApplyFault delivers one hardware fault event to the model it names
// and records it as an instant, named after its kind, on the
// faults/injector trace track (inert until EnableObs). The control
// plane (internal/ctrl) calls it from scheduler context, an Env.At
// callback, so it never blocks. A port the router lacks, a node
// without a device (CPU-only mode) and a kind outside the seven change
// nothing, so one fault plan can drive both modes.
//
// A link event raises or drops the carrier on both sides of the port:
// its RX queues stop receiving and its TX side drops instead of
// blocking. A GPU failure stalls the node's device until the repair
// (the master watchdog detects it at the next launch); a PCIe retrain
// divides the node's GPU link β by Div until the restore; an RX drop
// burst discards the port's arrivals for Dur.
func (r *Router) ApplyFault(e faults.Event) {
	var port *pktio.Port
	if e.Port >= 0 && e.Port < len(r.Engine.Ports) {
		port = r.Engine.Ports[e.Port]
	}
	var dev *gpu.Device
	if e.Node >= 0 && e.Node < len(r.Devices) {
		dev = r.Devices[e.Node]
	}
	switch e.Kind {
	case faults.KindLinkDown, faults.KindLinkUp:
		if port != nil {
			up := e.Kind == faults.KindLinkUp
			port.Tx.SetCarrier(up)
			for _, q := range port.Rx {
				q.SetCarrier(up)
			}
		}
	case faults.KindRxDropBurst:
		if port != nil {
			for _, q := range port.Rx {
				q.DropBurst(e.Dur)
			}
		}
	case faults.KindGPUFail:
		if dev != nil {
			dev.Fail()
		}
	case faults.KindGPURepair:
		if dev != nil {
			dev.Repair()
		}
	case faults.KindPCIeRetrain:
		if dev != nil {
			dev.Link.SetRetrain(e.Div)
		}
	case faults.KindPCIeRestore:
		if dev != nil {
			dev.Link.SetRetrain(1)
		}
	}
	r.obs.tr.Instant(r.obs.faultTrack, e.Kind.String(), r.Env.Now(),
		obs.Arg{Key: "port", Val: int64(e.Port)},
		obs.Arg{Key: "node", Val: int64(e.Node)})
}

// DegradedTime reports the cumulative virtual time any master has spent
// with its GPU held out (from watchdog detection to the successful
// recovery probe), including a still-open outage.
func (r *Router) DegradedTime() sim.Duration {
	var d sim.Duration
	now := r.Env.Now()
	for _, m := range r.masters {
		d += m.degraded
		if m.gpuOut {
			d += sim.Duration(now - m.outSince)
		}
	}
	return d
}

// CarrierDrops sums TX packets dropped because a port's carrier was
// down (the link-flap accounting, distinct from ring overflow).
func (r *Router) CarrierDrops() uint64 {
	var n uint64
	for _, p := range r.Engine.Ports {
		n += p.Tx.CarrierDrops
	}
	return n
}
