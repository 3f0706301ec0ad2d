package ctrl

import (
	"fmt"
	"io"

	"packetshader/internal/core"
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

// exec is the per-command delivery record. Each scheduled callback owns
// exactly its own record (captured loop-locally in Attach), so
// deliveries share no mutable state; the Controller's accessors merge
// the records at read time.
type exec struct {
	cmd     Command
	fired   bool
	applied uint64 // route updates applied (OpRoute)
	cells   uint64 // DIR-24-8 cells touched (OpRoute)
	err     string // non-empty when the command failed
}

// Controller is an attached management session: every script command is
// scheduled on the virtual clock, and the record of what each one did
// is queryable once the run has advanced past it.
type Controller struct {
	env    *sim.Env
	router *core.Router
	out    io.Writer
	fib    FIBApplier
	reg    *obs.Registry

	recs []exec
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
		recs:   make([]exec, len(cmds)),
	}
	now := env.Now()
	for i, cmd := range cmds {
		c.recs[i].cmd = cmd
	}
	for i := range c.recs {
		rec := &c.recs[i]
		// The record writes happen here, through the loop-local
		// capture: run() never sees rec, so no two callbacks share
		// mutable state.
		env.At(now+sim.Time(rec.cmd.At), func() {
			applied, cells, errs := c.run(rec.cmd)
			rec.fired = true
			rec.applied = applied
			rec.cells = cells
			rec.err = errs
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
	case OpChunkCap, OpGatherMax:
		if cmd.N < 1 {
			return fmt.Errorf("ctrl: %s %d at %v: value must be >= 1", cmd.Op, cmd.N, cmd.At)
		}
	case OpPortAdmin, OpRxBurst:
		if cmd.N < 0 || cmd.N >= len(router.Engine.Ports) {
			return fmt.Errorf("ctrl: %s at %v: port %d outside 0..%d", cmd.Op, cmd.At, cmd.N, len(router.Engine.Ports)-1)
		}
		if cmd.Op == OpRxBurst && cmd.Dur <= 0 {
			return fmt.Errorf("ctrl: rxburst on port %d at %v: duration must be positive", cmd.N, cmd.At)
		}
	case OpGPU, OpPCIe:
		// Checked against the NUMA nodes, not the devices: a CPU-only
		// router has no GPUs and ignores these commands, so one plan
		// can drive both modes.
		if nodes := router.Cfg.IO.Nodes; cmd.N < 0 || cmd.N >= nodes {
			return fmt.Errorf("ctrl: %s at %v: node %d outside 0..%d", cmd.Op, cmd.At, cmd.N, nodes-1)
		}
		if cmd.Op == OpPCIe && !cmd.On && cmd.Div < 1 {
			return fmt.Errorf("ctrl: pcie %d retrain %d at %v: divisor must be >= 1", cmd.N, cmd.Div, cmd.At)
		}
	}
	if cmd.At < 0 {
		return fmt.Errorf("ctrl: %s at negative offset %v", cmd.Op, cmd.At)
	}
	return nil
}

// run executes one command in scheduler context and returns what it did
// (route updates applied, cells touched, error text); the caller owns
// the delivery record.
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
	case OpPortAdmin:
		c.router.SetCarrier(cmd.N, cmd.On)
		c.printf("@%v port %d %s\n", c.env.Now(), cmd.N, pick(cmd.On, "up", "down"))
	case OpGPU:
		if cmd.On {
			c.router.RepairGPU(cmd.N)
		} else {
			c.router.FailGPU(cmd.N)
		}
		c.printf("@%v gpu %d %s\n", c.env.Now(), cmd.N, pick(cmd.On, "repair", "fail"))
	case OpPCIe:
		if cmd.On {
			c.router.RetrainPCIe(cmd.N, 1)
			c.printf("@%v pcie %d restore\n", c.env.Now(), cmd.N)
		} else {
			c.router.RetrainPCIe(cmd.N, cmd.Div)
			c.printf("@%v pcie %d retrain %d\n", c.env.Now(), cmd.N, cmd.Div)
		}
	case OpRxBurst:
		c.router.RxDropBurst(cmd.N, cmd.Dur)
		c.printf("@%v rxburst %d %.3fus\n", c.env.Now(), cmd.N, cmd.Dur.Microseconds())
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
	for _, h := range hwKinds {
		if h.op == cmd.Op && h.on == cmd.On {
			port, node := cmd.N, 0
			if cmd.Op.onNode() {
				port, node = 0, cmd.N
			}
			c.router.TraceFault(h.kind.String(), port, node)
		}
	}
	return 0, 0, ""
}

// stats streams the one-line framework counter snapshot.
func (c *Controller) stats() {
	r := c.router
	rx, rxDropped, tx, txDropped := r.Engine.AggregateStats()
	c.printf("@%v stats packets=%d rx=%d rx_dropped=%d tx=%d tx_dropped=%d app_drops=%d chunks_cpu=%d chunks_gpu=%d launches=%d delivered_gbps=%.2f\n",
		c.env.Now(), r.Stats.Packets, rx, rxDropped, tx, txDropped,
		r.Stats.Drops, r.Stats.ChunksCPU, r.Stats.ChunksGPU,
		r.Stats.GPULaunches, r.DeliveredGbps())
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
func (c *Controller) Fired() int {
	n := 0
	for i := range c.recs {
		if c.recs[i].fired {
			n++
		}
	}
	return n
}

// RoutesApplied reports the route updates applied so far, merged from
// the per-command records at read time.
func (c *Controller) RoutesApplied() uint64 {
	var n uint64
	for i := range c.recs {
		n += c.recs[i].applied
	}
	return n
}

// CellsTouched reports the cumulative DIR-24-8 cells touched by route
// commands so far.
func (c *Controller) CellsTouched() uint64 {
	var n uint64
	for i := range c.recs {
		n += c.recs[i].cells
	}
	return n
}

// Errors returns the error strings of failed commands, in command
// order (empty slice when everything succeeded).
func (c *Controller) Errors() []string {
	var out []string
	for i := range c.recs {
		if c.recs[i].err != "" {
			out = append(out, c.recs[i].err)
		}
	}
	return out
}
