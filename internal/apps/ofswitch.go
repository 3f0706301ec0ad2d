package apps

import (
	"packetshader/internal/core"
	"packetshader/internal/hw/gpu"
	"packetshader/internal/model"
	"packetshader/internal/openflow"
	"packetshader/internal/packet"
)

// OFSwitch is the §6.2.3 OpenFlow switch. In the GPU mode, hash
// computation and wildcard matching are offloaded; exact-table probing
// and actions stay on the CPU ("leaving others in CPU for load
// distribution"). In the CPU-only mode everything runs on the workers.
type OFSwitch struct {
	SW       *openflow.Switch
	NumPorts int
	// kernel is rebuilt when the wildcard table changes size (its scan
	// cost is proportional to the rule count).
	kernel gpu.KernelSpec
	rules  int
}

// NewOFSwitch wraps a configured switch.
func NewOFSwitch(sw *openflow.Switch, numPorts int) *OFSwitch {
	a := &OFSwitch{SW: sw, NumPorts: numPorts}
	a.refreshKernel()
	return a
}

func (a *OFSwitch) refreshKernel() {
	n := a.SW.Wildcard.Len()
	a.rules = n
	a.kernel = gpu.KernelOpenFlowHash
	wc := gpu.KernelOpenFlowWildcard.ScaledBy(float64(n))
	a.kernel.RandomAccesses += wc.RandomAccesses
	a.kernel.ComputeCycles += wc.ComputeCycles
	a.kernel.Name = "openflow-hash+wildcard"
}

type ofState struct {
	dec    packet.Decoder
	keys   []openflow.FlowKey
	hashes []uint32
	// Speculative wildcard verdicts from the GPU kernel.
	wcAct []openflow.Action
	wcOK  []bool
	// Fully resolved actions (CPU-only path).
	act      []openflow.Action
	actOK    []bool
	resolved []bool
}

// Name implements core.App.
func (a *OFSwitch) Name() string { return "openflow-switch" }

// Kernel implements core.App.
func (a *OFSwitch) Kernel() *gpu.KernelSpec {
	if a.SW.Wildcard.Len() != a.rules {
		a.refreshKernel()
	}
	return &a.kernel
}

// PreShade extracts the 10-field flow key from every packet.
func (a *OFSwitch) PreShade(c *core.Chunk) core.PreResult {
	n := len(c.Bufs)
	st := chunkState[ofState](c)
	st.keys = scratch(st.keys, n)
	st.hashes = scratch(st.hashes, n)
	st.wcAct = scratch(st.wcAct, n)
	st.wcOK = scratch(st.wcOK, n)
	st.act = scratch(st.act, n)
	st.actOK = scratch(st.actOK, n)
	st.resolved = scratch(st.resolved, n)
	d := &st.dec
	for i, b := range c.Bufs {
		c.OutPorts[i] = -1
		if err := d.Decode(b.Data); err != nil {
			continue
		}
		st.keys[i] = openflow.ExtractKey(d, uint16(b.Port))
		c.OutPorts[i] = -2
	}
	return core.PreResult{
		CPUCycles: float64(n) * model.OFKeyExtractCycles,
		Threads:   n,
		InBytes:   n * 32, // serialized keys
		OutBytes:  n * 8,  // hash + wildcard verdict
	}
}

// RunKernel computes hashes and speculative wildcard matches for the
// whole chunk — the two GPU-offloaded operations.
func (a *OFSwitch) RunKernel(c *core.Chunk) {
	st := c.State.(*ofState)
	for i := range st.keys {
		if c.OutPorts[i] != -2 {
			continue
		}
		st.hashes[i] = st.keys[i].Hash()
		st.wcAct[i], _, st.wcOK[i] = a.SW.Wildcard.Lookup(&st.keys[i])
	}
}

// exactProbeCycles models the exact-table probe cost as a function of
// table size versus the CPU caches: small tables stay cache-resident,
// large ones miss to DRAM — the Figure 11(c) size dependence.
func (a *OFSwitch) exactProbeCycles() float64 {
	const entryBytes = 64 // key + action + stats ≈ one cache line
	tableBytes := float64(a.SW.Exact.Len() * entryBytes)
	cacheBytes := float64(model.NumNodes * model.L3CacheBytes)
	missFrac := 0.0
	if tableBytes > cacheBytes {
		missFrac = 1 - cacheBytes/tableBytes
	}
	return 30 + missFrac*model.MemAccessCycles()
}

// PostShade finishes classification: exact-match probe with the
// precomputed hash, falling back to the wildcard verdict (or, on the
// CPU-only path, just applies the already-resolved action).
func (a *OFSwitch) PostShade(c *core.Chunk) float64 {
	st := c.State.(*ofState)
	cycles := 0.0
	for i := range c.Bufs {
		if c.OutPorts[i] != -2 {
			continue
		}
		var act openflow.Action
		var ok bool
		if st.resolved[i] {
			act, ok = st.act[i], st.actOK[i]
		} else {
			act, _, ok = a.SW.Exact.LookupHashed(st.keys[i], st.hashes[i])
			cycles += a.exactProbeCycles()
			if !ok {
				act, ok = st.wcAct[i], st.wcOK[i]
			}
		}
		if !ok {
			a.SW.Misses++
			c.OutPorts[i] = -1
			continue
		}
		cycles += model.AppOFActionCycles
		if len(act.Mods) > 0 {
			out, err := openflow.ApplyMods(c.Bufs[i].Data, act.Mods)
			if err == nil {
				c.Bufs[i].Data = out
			}
			cycles += float64(len(act.Mods)) * model.AppOFActionCycles
		}
		c.OutPorts[i] = a.apply(act, int(st.keys[i].InPort))
	}
	return cycles
}

func (a *OFSwitch) apply(act openflow.Action, inPort int) int {
	switch act.Type {
	case openflow.ActionOutput:
		return int(act.Port) % a.NumPorts
	case openflow.ActionFlood:
		// The data-path simulation forwards to one representative port
		// (true flooding would duplicate the buffer).
		return (inPort + 1) % a.NumPorts
	default:
		return -1
	}
}

// CPUWork is the CPU-only path: hash, exact probe, and (on miss) the
// wildcard linear scan, all on the worker, fully resolving the action.
func (a *OFSwitch) CPUWork(c *core.Chunk) float64 {
	st := c.State.(*ofState)
	cycles := 0.0
	for i := range c.Bufs {
		if c.OutPorts[i] != -2 {
			continue
		}
		st.hashes[i] = st.keys[i].Hash()
		cycles += model.OFHashCycles
		act, _, ok := a.SW.Exact.LookupHashed(st.keys[i], st.hashes[i])
		cycles += a.exactProbeCycles()
		if !ok {
			var scanned int
			act, scanned, ok = a.SW.Wildcard.Lookup(&st.keys[i])
			cycles += float64(scanned) * model.OFWildcardEntryCycles
		}
		st.act[i], st.actOK[i], st.resolved[i] = act, ok, true
	}
	return cycles
}
