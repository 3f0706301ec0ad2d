package core

import (
	"packetshader/internal/obs"
	"packetshader/internal/sim"
)

// Hardware hooks: the control plane (internal/ctrl) degrades and
// repairs the hardware models through these methods. All of them are
// non-blocking (they run in scheduler context, Env.At callbacks).
// Out-of-range nodes and nodes without a device (CPU-only mode) are
// ignored, so one fault plan can drive both modes.

// SetCarrier raises or drops the carrier on both sides of a port: RX
// queues stop receiving and the TX side drops instead of blocking.
func (r *Router) SetCarrier(port int, up bool) {
	if port < 0 || port >= len(r.Engine.Ports) {
		return
	}
	p := r.Engine.Ports[port]
	p.Tx.SetCarrier(up)
	for _, q := range p.Rx {
		q.SetCarrier(up)
	}
}

// RxDropBurst discards a port's RX arrivals for d of virtual time.
func (r *Router) RxDropBurst(port int, d sim.Duration) {
	if port < 0 || port >= len(r.Engine.Ports) {
		return
	}
	for _, q := range r.Engine.Ports[port].Rx {
		q.DropBurst(d)
	}
}

// FailGPU stalls the node's device; the master watchdog will detect it
// on the next launch.
func (r *Router) FailGPU(node int) {
	if node >= 0 && node < len(r.Devices) {
		r.Devices[node].Fail()
	}
}

// RepairGPU restores the node's device; the next backoff probe
// succeeds and ends the degraded interval.
func (r *Router) RepairGPU(node int) {
	if node >= 0 && node < len(r.Devices) {
		r.Devices[node].Repair()
	}
}

// RetrainPCIe sets the β-divisor of the node's GPU link.
func (r *Router) RetrainPCIe(node, divisor int) {
	if node >= 0 && node < len(r.Devices) {
		r.Devices[node].Link.SetRetrain(divisor)
	}
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

// TraceFault records one delivered hardware command as an instant on
// the faults/injector trace track (inert until EnableObs).
func (r *Router) TraceFault(name string, port, node int) {
	r.obs.tr.Instant(r.obs.faultTrack, name, r.Env.Now(),
		obs.Arg{Key: "port", Val: int64(port)},
		obs.Arg{Key: "node", Val: int64(node)})
}
