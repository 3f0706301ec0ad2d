package ctrl

import (
	"fmt"
	"io"
	"slices"

	"packetshader/internal/core"
	"packetshader/internal/faults"
	"packetshader/internal/obs"
	"packetshader/internal/sim"
)

// Config wires a Controller to its router-side collaborators.
type Config struct {
	// Out receives command responses (confirmations, stats/metrics
	// snapshots, errors) in virtual-time order. nil discards them.
	Out io.Writer
	// FIB applies OpRoute batches. nil rejects route commands at Attach.
	FIB FIBApplier
	// Reg is the metrics registry OpMetrics snapshots — it must be the
	// registry installed with Router.EnableObs, so ObserveStats refreshes
	// it before each dump. nil downgrades OpMetrics to a stats line.
	Reg *obs.Registry
}

// Controller is an attached management session: every script command is
// scheduled on the virtual clock, and the tally of what the fired ones
// did is queryable once the run has advanced past them.
type Controller struct {
	env    *sim.Env
	router *core.Router
	out    io.Writer
	fib    FIBApplier
	reg    *obs.Registry

	fired   int      // commands executed
	applied uint64   // route updates applied
	cells   uint64   // DIR-24-8 cells touched by route commands
	errs    []string // failed commands' errors, in firing order
}

// Attach schedules every command of script at now+Command.At on env's
// virtual clock, against router. Commands fire in scheduler context in
// (At, script-order) sequence — between worker steps, never mid-chunk —
// so reconfiguration timing is exact and the run stays deterministic.
// Attach returns an error if the script needs a collaborator the config
// does not provide (route commands without a FIBApplier) or if a
// command is malformed; nothing is scheduled on error.
func Attach(env *sim.Env, router *core.Router, script *Script, cfg Config) (*Controller, error) {
	cmds := script.Commands()
	for _, cmd := range cmds {
		if err := precheck(cmd, router, cfg); err != nil {
			return nil, err
		}
	}
	c := &Controller{
		env:    env,
		router: router,
		out:    cfg.Out,
		fib:    cfg.FIB,
		reg:    cfg.Reg,
	}
	now := env.Now()
	for _, cmd := range cmds {
		env.At(now+sim.Time(cmd.At), func() {
			applied, cells, errs := c.run(cmd)
			c.fired++
			c.applied += applied
			c.cells += cells
			if errs != "" {
				c.errs = append(c.errs, errs)
			}
		})
	}
	return c, nil
}

// precheck rejects commands that could never execute, so a bad script
// fails loudly at attach time instead of silently mid-run.
func precheck(cmd Command, router *core.Router, cfg Config) error {
	switch cmd.Op {
	case OpRoute:
		if cfg.FIB == nil {
			return fmt.Errorf("ctrl: script has route commands but no FIBApplier is configured (build the router with an updatable FIB)")
		}
		if len(cmd.Routes) == 0 {
			return fmt.Errorf("ctrl: empty route batch at %v", cmd.At)
		}
		for _, u := range cmd.Routes {
			if !u.Prefix.Valid() {
				return fmt.Errorf("ctrl: route %s %v at %v: length over 32 or host bits set", u.Act, u.Prefix, cmd.At)
			}
		}
	case OpChunkCap, OpGatherMax:
		if cmd.N < 1 {
			return fmt.Errorf("ctrl: %s %d at %v: value must be >= 1", cmd.Op, cmd.N, cmd.At)
		}
	case OpFault:
		if err := checkFault(cmd.Fault, router); err != nil {
			return fmt.Errorf("ctrl: %s at %v: %v", cmd.Fault.Kind, cmd.At, err)
		}
	}
	if cmd.At < 0 {
		return fmt.Errorf("ctrl: %s at negative offset %v", cmd.Op, cmd.At)
	}
	return nil
}

// checkFault rejects an event ApplyFault could not deliver: an unknown
// kind, a port or node the router lacks, a retrain divisor below 1 or an
// empty drop burst. Nodes are checked against the NUMA nodes, not the
// devices: a CPU-only router has no GPUs and ignores their events, so
// one plan can drive both modes.
func checkFault(e faults.Event, router *core.Router) error {
	if int(e.Kind) >= len(faultWords) {
		return fmt.Errorf("unknown fault kind")
	}
	what, n := faultIndex(e)
	limit := len(router.Engine.Ports)
	if what == "node" {
		limit = router.Cfg.IO.Nodes
	}
	switch {
	case n < 0 || n >= limit:
		return fmt.Errorf("%s %d outside 0..%d", what, n, limit-1)
	case e.Kind == faults.KindPCIeRetrain && e.Div < 1:
		return fmt.Errorf("divisor %d must be >= 1", e.Div)
	case e.Kind == faults.KindRxDropBurst && e.Dur <= 0:
		return fmt.Errorf("duration must be positive")
	}
	return nil
}

// run executes one command in scheduler context and returns what it did
// (route updates applied, cells touched, error text) for the caller to
// tally.
func (c *Controller) run(cmd Command) (applied, cells uint64, errs string) {
	switch cmd.Op {
	case OpRoute:
		cells, err := c.fib.ApplyRoutes(cmd.Routes)
		if err != nil {
			c.printf("@%v route error: %v\n", c.env.Now(), err)
			return 0, cells, err.Error()
		}
		c.printf("@%v route applied=%d cells=%d\n", c.env.Now(), len(cmd.Routes), cells)
		return uint64(len(cmd.Routes)), cells, ""
	case OpChunkCap:
		c.router.SetChunkCap(cmd.N)
		c.printf("@%v set chunkcap %d\n", c.env.Now(), cmd.N)
	case OpGatherMax:
		c.router.SetGatherMax(cmd.N)
		c.printf("@%v set gathermax %d\n", c.env.Now(), cmd.N)
	case OpOpportunistic:
		c.router.SetOpportunistic(cmd.On)
		c.printf("@%v set opportunistic %s\n", c.env.Now(), pick(cmd.On, "on", "off"))
	case OpFault:
		c.router.ApplyFault(cmd.Fault)
		c.printf("@%v %s\n", c.env.Now(), faultLine(cmd.Fault))
	case OpStats:
		c.stats()
	case OpMetrics:
		if c.reg == nil {
			c.stats()
			return 0, 0, ""
		}
		c.printf("@%v metrics:\n", c.env.Now())
		if c.out != nil {
			c.router.ObserveStats()
			c.reg.Dump(c.out) //nolint:errcheck // best-effort, like the end-of-run dumps
		}
	}
	return 0, 0, ""
}

// stats streams the framework counter snapshot on one line, ending with
// the frames each port has received (fetched or dropped at its RX
// rings, so a deaf port's count stops), and the packet ledger on the
// next.
func (c *Controller) stats() {
	r := c.router
	rx, rxDropped, tx, txDropped := r.Engine.AggregateStats()
	c.printf("@%v stats packets=%d rx=%d rx_dropped=%d tx=%d tx_dropped=%d app_drops=%d chunks_cpu=%d chunks_gpu=%d launches=%d delivered_gbps=%.2f rx_ports=",
		c.env.Now(), r.Stats.Packets, rx, rxDropped, tx, txDropped,
		r.Stats.Drops, r.Stats.ChunksCPU, r.Stats.ChunksGPU,
		r.Stats.GPULaunches, r.DeliveredGbps())
	for i, p := range r.Engine.Ports {
		var n uint64
		for _, q := range p.Rx {
			n += q.Stats.Packets + q.Stats.Dropped
		}
		c.printf("%s%d", pick(i == 0, "", "/"), n)
	}
	c.printf("\n")
	c.printf("@%v ledger", c.env.Now())
	for i, n := range r.Ledger().Counts() {
		c.printf(" %s=%d", core.LedgerNames[i], n)
	}
	c.printf("\n")
}

func (c *Controller) printf(format string, args ...any) {
	if c.out != nil {
		fmt.Fprintf(c.out, format, args...)
	}
}

func pick(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}

// Fired reports how many commands have executed so far.
func (c *Controller) Fired() int { return c.fired }

// RoutesApplied reports the route updates applied so far.
func (c *Controller) RoutesApplied() uint64 { return c.applied }

// CellsTouched reports the cumulative DIR-24-8 cells touched by route
// commands so far.
func (c *Controller) CellsTouched() uint64 { return c.cells }

// Errors returns the error strings of failed commands, in command
// order (nil when everything succeeded). Commands fire in command
// order, so firing order is command order.
func (c *Controller) Errors() []string { return slices.Clone(c.errs) }
