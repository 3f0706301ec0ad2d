// Package pcie models the server's I/O fabric (Figure 3): per-node Intel
// 5520 I/O hubs with the dual-IOH throughput asymmetry of §3.2, and
// per-device PCIe links with the α+size/β transfer-time model fitted to
// Table 1. The IOH is the resource whose saturation produces the paper's
// ≈40 Gbps forwarding plateau (§4.6) and the 20 Gbps IPsec plateau
// (§6.3).
//
// Each hub has two directional engines: up (device→host: RX DMA, GPU
// device-to-host copies) at 30 Gbps and down (host→device: TX DMA, GPU
// host-to-device copies) at 60 Gbps. Down transfers additionally consume
// up capacity (completion/credit traffic on the congested return path —
// the dual-IOH erratum), with coupling factor model.IOHKappa. NIC DMA
// queues FIFO on the engines (it is the throttle point); GPU copies use
// "express" service — PCIe TLP arbitration interleaves their small
// transfers long before a bulk DMA train drains — which reserves the
// same capacity but does not wait behind the NIC backlog.
package pcie

import (
	"strconv"

	"packetshader/internal/model"
	"packetshader/internal/sim"
)

// IOH is one I/O hub.
type IOH struct {
	up   *sim.Server
	down *sim.Server
}

// NewIOH creates the hub for a NUMA node. The engines carry the node
// number in their names so per-resource occupancy traces distinguish
// the hubs.
func NewIOH(env *sim.Env, node int) *IOH {
	n := strconv.Itoa(node)
	return &IOH{
		up:   sim.NewServer(env, "ioh"+n+"-up"),
		down: sim.NewServer(env, "ioh"+n+"-down"),
	}
}

// upTime and downTime are the hubs' per-byte service times in exact
// integer arithmetic on the picosecond clock: 30 Gbps moves a byte in
// 800/3 ps and 60 Gbps in 400/3 ps, and a third never rounds to a half,
// so n/3 to the nearest is (2n+3)/6 — equal, for every byte count, to
// sim.DurationFromSeconds(bytes / model.IOH{Up,Down}Bps), which is the
// reference TestIOHTimesMatchFloatReference keeps.
func upTime(bytes int) sim.Duration { return (sim.Duration(bytes)*1600 + 3) / 6 }

func downTime(bytes int) sim.Duration { return (sim.Duration(bytes)*800 + 3) / 6 }

// kappaUpTime is the coupled return-path charge of a down transfer.
func kappaUpTime(bytes int) sim.Duration {
	return sim.Duration(model.IOHKappa * float64(upTime(bytes)))
}

// ScheduleUp reserves FIFO fabric time for a device→host transfer and
// returns its completion time.
func (i *IOH) ScheduleUp(bytes int) sim.Time {
	return i.up.Schedule(upTime(bytes))
}

// ScheduleDown reserves FIFO fabric time for a host→device transfer.
// The coupled return-path cost is charged to the up engine.
func (i *IOH) ScheduleDown(bytes int) sim.Time {
	i.up.Schedule(kappaUpTime(bytes))
	return i.down.Schedule(downTime(bytes))
}

// ExpressUp reserves up capacity but completes after just the service
// time (interleaved arbitration: no waiting behind bulk NIC DMA).
func (i *IOH) ExpressUp(bytes int) sim.Time {
	t := upTime(bytes)
	i.up.Schedule(t)
	return i.up.Now() + sim.Time(t)
}

// ExpressDown is the host→device express path.
func (i *IOH) ExpressDown(bytes int) sim.Time {
	i.up.Schedule(kappaUpTime(bytes))
	t := downTime(bytes)
	i.down.Schedule(t)
	return i.down.Now() + sim.Time(t)
}

// UpBusy exposes cumulative up-engine work (tests).
func (i *IOH) UpBusy() sim.Duration { return i.up.BusyTime() }

// DownBusy exposes cumulative down-engine work (tests).
func (i *IOH) DownBusy() sim.Duration { return i.down.BusyTime() }

// Link is one PCIe device link (x16 for a GPU). PCIe is full duplex, so
// each direction is an independent serializing engine. GPU copies cross
// the IOH via the express path.
type Link struct {
	up, down *sim.Server
	ioh      *IOH

	// retrain is the β-divisor of the link's current training state: 1
	// (or 0) means fully trained; 2 models a retrain that renegotiated
	// half the lanes, doubling the per-byte term of the α+size/β model
	// while leaving the fixed α untouched. Set via SetRetrain by the
	// control plane's pcie retrain/restore commands.
	retrain int
}

// NewLink attaches a device link to an IOH.
func NewLink(env *sim.Env, ioh *IOH, name string) *Link {
	return &Link{
		up:   sim.NewServer(env, name+"-up"),
		down: sim.NewServer(env, name+"-down"),
		ioh:  ioh,
	}
}

// CopyH2D blocks p for a host→device DMA of size bytes: the transfer
// occupies the link (Table 1 time) and consumes IOH capacity; it
// completes when the slower of the two is done.
func (l *Link) CopyH2D(p *sim.Proc, size int) {
	p.SleepUntil(l.ScheduleH2D(size))
}

// CopyD2H blocks p for a device→host DMA.
func (l *Link) CopyD2H(p *sim.Proc, size int) {
	p.SleepUntil(l.ScheduleD2H(size))
}

// SetRetrain sets the link's β-divisor: 1 restores full speed, 2 halves
// the effective byte rate (a degraded retrain after link errors).
// Divisors below 1 are clamped to 1. Transfers already scheduled keep
// their reserved times; only new reservations see the new rate.
func (l *Link) SetRetrain(divisor int) {
	if divisor < 1 {
		divisor = 1
	}
	l.retrain = divisor
}

// RetrainDivisor reports the current β-divisor (1 = healthy).
func (l *Link) RetrainDivisor() int {
	if l.retrain < 1 {
		return 1
	}
	return l.retrain
}

// h2dTime is the host→device transfer time under the current training
// state: the calibrated α+size/β time plus (divisor-1) extra copies of
// the size/β term.
func (l *Link) h2dTime(size int) sim.Duration {
	t := model.H2DTime(size)
	if l.retrain > 1 {
		t += sim.DurationFromSeconds(float64(l.retrain-1) * float64(size) / model.PCIeH2DBetaBps)
	}
	return t
}

func (l *Link) d2hTime(size int) sim.Duration {
	t := model.D2HTime(size)
	if l.retrain > 1 {
		t += sim.DurationFromSeconds(float64(l.retrain-1) * float64(size) / model.PCIeD2HBetaBps)
	}
	return t
}

// ScheduleH2D is the non-blocking variant (for pipelined streams):
// it reserves both resources and returns the completion time.
func (l *Link) ScheduleH2D(size int) sim.Time {
	return max(l.down.Schedule(l.h2dTime(size)), l.ioh.ExpressDown(size))
}

// ScheduleD2H reserves a device→host transfer and returns completion.
func (l *Link) ScheduleD2H(size int) sim.Time {
	return max(l.up.Schedule(l.d2hTime(size)), l.ioh.ExpressUp(size))
}

// UpBusy exposes cumulative device→host link work.
func (l *Link) UpBusy() sim.Duration { return l.up.BusyTime() }

// DownBusy exposes cumulative host→device link work.
func (l *Link) DownBusy() sim.Duration { return l.down.BusyTime() }

// ScheduleD2HAt reserves a device→host transfer that may not start
// before notBefore (pipelined copy-out after a kernel completes).
func (l *Link) ScheduleD2HAt(notBefore sim.Time, size int) sim.Time {
	done := l.up.ScheduleAt(notBefore, l.d2hTime(size))
	express := l.ioh.ExpressUp(size)
	if express < notBefore {
		express = notBefore
	}
	return max(done, express)
}
