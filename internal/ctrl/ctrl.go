// Package ctrl is the deterministic control plane: a management session
// for a running router whose commands arrive on the *virtual* clock.
//
// A Script is a timestamped list of commands — route add/del/replace
// batches, live batch-policy retuning (chunk cap, gather max,
// opportunistic offload), stats/metrics snapshots, and the hardware
// commands: port admin up/down, GPU fail/repair, PCIe retrain/restore
// and RX drop bursts. Attaching a Script to a router schedules every
// command as a simulation event at its offset from the attach instant,
// so a management session — faults included — is part of a run's
// deterministic input: replaying the same script against the same seed
// produces byte-identical output, reconfiguration and degradation
// included.
//
// The Controller is the only scheduler of timestamped operations
// against a router. A faults.Plan is not a second mechanism: FromPlan
// compiles it to a Script, and the facade's WithFaults / WithGPUOutage /
// WithLinkFlap attach that script at construction.
//
// Commands reach the data path through three mediation channels, each
// chosen so live reconfiguration stays inside the determinism contract:
//
//   - route updates mutate the FIB through a FIBApplier in scheduler
//     context — atomic on the virtual clock because no worker runs
//     mid-callback, and every intermediate DIR-24-8 state is a
//     consistent routing function (internal/lookup/ipv4.DynamicTable);
//   - batch-policy knobs travel through each worker's and master's
//     control mailbox (core.Router.SetChunkCap and friends), the same
//     queue the master's GPU hold-out status travels on;
//   - hardware commands call the router's hardware hooks
//     (core.Router.SetCarrier, FailGPU, RetrainPCIe, RxDropBurst),
//     which flip model state that the data path reads at its next
//     fetch, transmit or launch.
//
// The text form of a Script (the .psc command language) is parsed by
// ParseScript; cmd/pshader's -ctrl flag runs the router as `pshaderd`,
// a long-lived service under script control.
package ctrl

import (
	"fmt"
	"sort"

	"packetshader/internal/faults"
	"packetshader/internal/route"
	"packetshader/internal/sim"
)

// Op is a management command type.
type Op uint8

// Command operations.
const (
	// OpRoute applies the command's Routes batch to the FIB.
	OpRoute Op = iota
	// OpChunkCap retunes the per-chunk packet cap (§5.3).
	OpChunkCap
	// OpGatherMax retunes chunks-per-GPU-launch (§5.4).
	OpGatherMax
	// OpOpportunistic toggles opportunistic offload (§7).
	OpOpportunistic
	// OpPortAdmin raises or drops one port's carrier.
	OpPortAdmin
	// OpGPU fails or repairs one node's GPU; the master watchdog
	// degrades to the CPU path while it is failed.
	OpGPU
	// OpPCIe retrains one node's GPU link at β/Div, or restores it.
	OpPCIe
	// OpRxBurst discards one port's RX arrivals for Dur.
	OpRxBurst
	// OpStats streams a one-line framework counter snapshot.
	OpStats
	// OpMetrics streams a full metrics-registry snapshot.
	OpMetrics
)

// String names the operation for responses and errors.
func (o Op) String() string {
	switch o {
	case OpRoute:
		return "route"
	case OpChunkCap:
		return "set chunkcap"
	case OpGatherMax:
		return "set gathermax"
	case OpOpportunistic:
		return "set opportunistic"
	case OpPortAdmin:
		return "port"
	case OpGPU:
		return "gpu"
	case OpPCIe:
		return "pcie"
	case OpRxBurst:
		return "rxburst"
	case OpStats:
		return "stats"
	case OpMetrics:
		return "metrics"
	default:
		return fmt.Sprintf("op-%d", uint8(o))
	}
}

// RouteAction is one route mutation kind inside an OpRoute batch.
type RouteAction uint8

// Route actions. ActAdd and ActReplace are the same table operation
// (DIR-24-8 insert overwrites); both are kept so scripts read like
// router CLIs and so appliers may distinguish them later.
const (
	ActAdd RouteAction = iota
	ActDel
	ActReplace
)

// String names the action.
func (a RouteAction) String() string {
	switch a {
	case ActAdd:
		return "add"
	case ActDel:
		return "del"
	case ActReplace:
		return "replace"
	default:
		return fmt.Sprintf("act-%d", uint8(a))
	}
}

// RouteUpdate is one route mutation.
type RouteUpdate struct {
	Act     RouteAction
	Prefix  route.Prefix
	NextHop uint16 // ignored for ActDel
}

// Command is one timestamped management command. At is an offset from
// the instant the script is attached (Attach), so scripts are
// position-independent and reusable across warmup phases, like fault
// plans.
type Command struct {
	At sim.Duration
	Op Op

	// Routes is the OpRoute batch: applied as one unit, so a
	// rebuild-strategy FIB pays one rebuild per batch.
	Routes []RouteUpdate
	// N carries the integer argument: the new cap for OpChunkCap /
	// OpGatherMax, the port for OpPortAdmin / OpRxBurst, the NUMA node
	// for OpGPU / OpPCIe.
	N int
	// On carries the boolean argument: OpOpportunistic state, and for
	// the hardware commands "healthy" — OpPortAdmin carrier up, OpGPU
	// repaired, OpPCIe restored to full speed.
	On bool
	// Div is the β-divisor of an OpPCIe retrain (2 = half speed);
	// unused when On.
	Div int
	// Dur is the length of an OpRxBurst discard window.
	Dur sim.Duration
}

// RouteAdd returns a single-route add command.
func RouteAdd(at sim.Duration, p route.Prefix, nextHop uint16) Command {
	return Command{At: at, Op: OpRoute, Routes: []RouteUpdate{{Act: ActAdd, Prefix: p, NextHop: nextHop}}}
}

// RouteDel returns a single-route delete command.
func RouteDel(at sim.Duration, p route.Prefix) Command {
	return Command{At: at, Op: OpRoute, Routes: []RouteUpdate{{Act: ActDel, Prefix: p}}}
}

// RouteBatch returns a batched route command: the whole batch is
// applied at one instant, and a rebuild-strategy FIB rebuilds once for
// all of it.
func RouteBatch(at sim.Duration, updates []RouteUpdate) Command {
	return Command{At: at, Op: OpRoute, Routes: updates}
}

// SetChunkCap returns a live chunk-cap retune command.
func SetChunkCap(at sim.Duration, n int) Command {
	return Command{At: at, Op: OpChunkCap, N: n}
}

// SetGatherMax returns a live gather-max retune command.
func SetGatherMax(at sim.Duration, n int) Command {
	return Command{At: at, Op: OpGatherMax, N: n}
}

// SetOpportunistic returns a live opportunistic-offload toggle command.
func SetOpportunistic(at sim.Duration, on bool) Command {
	return Command{At: at, Op: OpOpportunistic, On: on}
}

// PortAdmin returns a port admin command: up=false drops the port's
// carrier (RX stops, TX drops), up=true restores it.
func PortAdmin(at sim.Duration, port int, up bool) Command {
	return Command{At: at, Op: OpPortAdmin, N: port, On: up}
}

// GPU returns a GPU fault command: up=false stalls node's device until
// a later up=true repairs it.
func GPU(at sim.Duration, node int, up bool) Command {
	return Command{At: at, Op: OpGPU, N: node, On: up}
}

// PCIeRetrain returns a command renegotiating node's GPU link at β/div.
func PCIeRetrain(at sim.Duration, node, div int) Command {
	return Command{At: at, Op: OpPCIe, N: node, Div: div}
}

// PCIeRestore returns a command restoring node's GPU link to full speed.
func PCIeRestore(at sim.Duration, node int) Command {
	return Command{At: at, Op: OpPCIe, N: node, On: true}
}

// RxBurst returns a command discarding port's RX arrivals for dur.
func RxBurst(at sim.Duration, port int, dur sim.Duration) Command {
	return Command{At: at, Op: OpRxBurst, N: port, Dur: dur}
}

// hwKinds pairs every hardware command with the fault kind it
// delivers: FromPlan reads it kind → command, the controller command →
// kind to name the delivery on the trace.
var hwKinds = [...]struct {
	kind faults.Kind
	op   Op
	on   bool
}{
	{faults.KindLinkDown, OpPortAdmin, false},
	{faults.KindLinkUp, OpPortAdmin, true},
	{faults.KindGPUFail, OpGPU, false},
	{faults.KindGPURepair, OpGPU, true},
	{faults.KindPCIeRetrain, OpPCIe, false},
	{faults.KindPCIeRestore, OpPCIe, true},
	{faults.KindRxDropBurst, OpRxBurst, false},
}

// onNode reports whether the op's N is a NUMA node rather than a port.
func (o Op) onNode() bool { return o == OpGPU || o == OpPCIe }

// FromPlan compiles a fault plan to the script that delivers it: one
// hardware command per event, in Plan.Events order (sorted by offset,
// same-instant events in insertion order — which Commands preserves).
// A nil or empty plan compiles to an empty script.
func FromPlan(pl *faults.Plan) *Script {
	s := NewScript()
	for _, e := range pl.Events() {
		for _, h := range hwKinds {
			if h.kind == e.Kind {
				c := Command{At: e.At, Op: h.op, On: h.on, N: e.Port, Div: e.Div, Dur: e.Dur}
				if h.op.onNode() {
					c.N = e.Node
				}
				s.Add(c)
			}
		}
	}
	return s
}

// Stats returns a counter-snapshot command.
func Stats(at sim.Duration) Command { return Command{At: at, Op: OpStats} }

// Metrics returns a metrics-registry-snapshot command.
func Metrics(at sim.Duration) Command { return Command{At: at, Op: OpMetrics} }

// Script is an ordered management-command schedule.
type Script struct {
	cmds []Command
}

// NewScript returns a script of the given commands.
func NewScript(cmds ...Command) *Script {
	s := &Script{}
	for _, c := range cmds {
		s.Add(c)
	}
	return s
}

// Add appends a command and returns the script for chaining.
func (s *Script) Add(c Command) *Script {
	s.cmds = append(s.cmds, c)
	return s
}

// Len reports the number of commands.
func (s *Script) Len() int {
	if s == nil {
		return 0
	}
	return len(s.cmds)
}

// HasRoutes reports whether any command mutates the FIB — such scripts
// need a router built with an updatable FIB (see FIBApplier).
func (s *Script) HasRoutes() bool {
	if s == nil {
		return false
	}
	for _, c := range s.cmds {
		if c.Op == OpRoute {
			return true
		}
	}
	return false
}

// RouteUpdates counts the individual route mutations across every
// OpRoute batch.
func (s *Script) RouteUpdates() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, c := range s.cmds {
		if c.Op == OpRoute {
			n += len(c.Routes)
		}
	}
	return n
}

// Commands returns a copy of the schedule sorted by offset (stable, so
// same-instant commands keep script order — the deterministic
// tie-break, matching faults.Plan.Events).
func (s *Script) Commands() []Command {
	if s == nil {
		return nil
	}
	out := make([]Command, len(s.cmds))
	copy(out, s.cmds)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
