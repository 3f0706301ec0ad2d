// Package faults is the data model of deterministic fault injection: a
// Plan is an ordered schedule of typed hardware fault Events, built by
// hand or by the seeded Random generator. The package schedules
// nothing itself. Its two readers do: internal/ctrl compiles a Plan to
// a control script (ctrl.FromPlan) and delivers it to a router through
// the one Controller, and internal/cluster arms link and node events on
// the fabric's per-node partitions (the fabric has no Router). Either
// way the plan is part of a run's deterministic input — two runs of the
// same plan at the same seed produce byte-identical output.
//
// The fault classes map onto the calibrated hardware models:
//
//   - NIC link flap: carrier loss on one port (RX stops arriving, TX
//     drops) followed by carrier restore;
//   - RX drop burst: a ring-level discard window on one port (driver
//     pause / ring corruption) without carrier loss;
//   - GPU failure + repair: the device stalls every launch until
//     repaired — the master's watchdog detects this and degrades to the
//     CPU path (internal/core);
//   - PCIe retrain + restore: the device link renegotiates at half β,
//     doubling the per-byte transfer cost until restored.
package faults

import (
	"sort"
	"strconv"

	"packetshader/internal/sim"
)

// Kind is a fault event type.
type Kind uint8

// Fault event kinds. Paired kinds (down/up, fail/repair, retrain/
// restore) are emitted together by the Plan builders.
const (
	KindLinkDown Kind = iota
	KindLinkUp
	KindGPUFail
	KindGPURepair
	KindPCIeRetrain
	KindPCIeRestore
	KindRxDropBurst
)

// String names the kind for traces and logs.
func (k Kind) String() string {
	switch k {
	case KindLinkDown:
		return "link-down"
	case KindLinkUp:
		return "link-up"
	case KindGPUFail:
		return "gpu-fail"
	case KindGPURepair:
		return "gpu-repair"
	case KindPCIeRetrain:
		return "pcie-retrain"
	case KindPCIeRestore:
		return "pcie-restore"
	case KindRxDropBurst:
		return "rx-drop-burst"
	default:
		return "fault-" + strconv.Itoa(int(k))
	}
}

// Event is one scheduled fault. At is an offset from the instant the
// plan is armed (ctrl.Attach of the compiled script), so a plan is
// position-independent and reusable across warmup phases.
type Event struct {
	At   sim.Duration
	Kind Kind
	// Port targets link events; Node targets GPU/PCIe events.
	Port int
	Node int
	// Dur is the burst length for KindRxDropBurst (unused otherwise —
	// paired kinds carry their own restore event).
	Dur sim.Duration
	// Div is the β-divisor for KindPCIeRetrain (2 = half speed).
	Div int
}

// Plan is an ordered schedule of fault events. Builders append paired
// events (fault + recovery); Add appends a raw one. All builders return
// the plan for chaining.
type Plan struct {
	events []Event
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{} }

// Add appends a raw event.
func (pl *Plan) Add(e Event) *Plan {
	pl.events = append(pl.events, e)
	return pl
}

// LinkFlap schedules carrier loss on port at offset at, restored after
// dur.
func (pl *Plan) LinkFlap(port int, at, dur sim.Duration) *Plan {
	pl.Add(Event{At: at, Kind: KindLinkDown, Port: port})
	return pl.Add(Event{At: at + dur, Kind: KindLinkUp, Port: port})
}

// GPUOutage schedules a GPU failure on node at offset at, repaired
// after dur.
func (pl *Plan) GPUOutage(node int, at, dur sim.Duration) *Plan {
	pl.Add(Event{At: at, Kind: KindGPUFail, Node: node})
	return pl.Add(Event{At: at + dur, Kind: KindGPURepair, Node: node})
}

// PCIeRetrain schedules a half-β link retrain on node's GPU link at
// offset at, restored to full speed after dur.
func (pl *Plan) PCIeRetrain(node int, at, dur sim.Duration) *Plan {
	pl.Add(Event{At: at, Kind: KindPCIeRetrain, Node: node, Div: 2})
	return pl.Add(Event{At: at + dur, Kind: KindPCIeRestore, Node: node, Div: 1})
}

// RxDropBurst schedules a dur-long RX discard window on port at offset
// at.
func (pl *Plan) RxDropBurst(port int, at, dur sim.Duration) *Plan {
	return pl.Add(Event{At: at, Kind: KindRxDropBurst, Port: port, Dur: dur})
}

// Merge appends every event of other (nil-safe) and returns the plan
// for chaining — the composition hook for option-style builders that
// accumulate independently constructed plans.
func (pl *Plan) Merge(other *Plan) *Plan {
	if other != nil {
		pl.events = append(pl.events, other.events...)
	}
	return pl
}

// Len reports the number of scheduled events.
func (pl *Plan) Len() int {
	if pl == nil {
		return 0
	}
	return len(pl.events)
}

// Events returns a copy of the schedule sorted by offset (stable, so
// same-instant events keep insertion order — the deterministic
// tie-break).
func (pl *Plan) Events() []Event {
	if pl == nil {
		return nil
	}
	out := make([]Event, len(pl.events))
	copy(out, pl.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Random generates a seeded plan of n fault episodes spread over
// horizon, drawing kinds and targets pseudo-randomly across ports
// 0..ports-1 and nodes 0..nodes-1. Episode durations are 1/16 of the
// horizon. Identical arguments always produce the identical plan.
func Random(seed uint64, horizon sim.Duration, ports, nodes, n int) *Plan {
	pl := NewPlan()
	if horizon <= 0 || n <= 0 {
		return pl
	}
	dur := horizon / 16
	if dur <= 0 {
		dur = 1
	}
	for i := 0; i < n; i++ {
		r := sim.SplitMix64(seed ^ uint64(i)<<32)
		at := sim.Duration(r % uint64(horizon-dur+1))
		kind := sim.SplitMix64(r) % 4
		port := int(sim.SplitMix64(r^1) % uint64(max(ports, 1)))
		node := int(sim.SplitMix64(r^2) % uint64(max(nodes, 1)))
		switch kind {
		case 0:
			pl.LinkFlap(port, at, dur)
		case 1:
			pl.GPUOutage(node, at, dur)
		case 2:
			pl.PCIeRetrain(node, at, dur)
		default:
			pl.RxDropBurst(port, at, dur)
		}
	}
	return pl
}
