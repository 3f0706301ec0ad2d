package apps

import (
	"packetshader/internal/core"
	"packetshader/internal/hw/gpu"
	"packetshader/internal/packet"
)

// MultiApp implements the §7 "multi-functional" extension: several
// applications (e.g. IPv4 forwarding and IPsec tunneling) coexist on
// one router, with a classifier assigning each packet to an app. The
// paper notes its framework ran one kernel at a time per device and
// points at Fermi's concurrent-kernel support as the fix; here each
// sub-app's packets form a sub-chunk and the shading step executes the
// sub-kernels back to back within one launch window (their cost
// profiles compose additively, which is exact for serialized kernels
// and conservative for concurrent ones).
type MultiApp struct {
	Apps []core.App
	// Classify returns the index of the app that owns the packet (or
	// -1 to drop). It runs in pre-shading on the worker.
	Classify func(d *packet.Decoder, b *packet.Buf) int
	// ClassifyCycles is the per-packet CPU cost of classification.
	ClassifyCycles float64

	kernel gpu.KernelSpec
}

// NewMultiApp wires sub-apps behind a classifier.
func NewMultiApp(classify func(d *packet.Decoder, b *packet.Buf) int, classifyCycles float64, subApps ...core.App) *MultiApp {
	m := &MultiApp{Apps: subApps, Classify: classify, ClassifyCycles: classifyCycles}
	m.kernel = gpu.KernelSpec{Name: "multi"}
	return m
}

// multiState carries the per-app sub-chunks. It is recycled with the
// chunk, sub-chunks and their own app states included.
type multiState struct {
	dec packet.Decoder
	// assignment[i] is the app index of packet i (-1 dropped).
	assignment []int
	// subChunks[a] collects app a's packets (views into the parent);
	// it is empty when the chunk holds none for that app.
	subChunks []*core.Chunk
	// backRefs[a][j] is the parent index of sub-chunk a's packet j.
	backRefs [][]int
}

// Name implements core.App.
func (m *MultiApp) Name() string { return "multi-app" }

// Kernel returns the cost profile of the most recent pre-shaded mix;
// composing additively over sub-kernels weighted by their thread share.
func (m *MultiApp) Kernel() *gpu.KernelSpec { return &m.kernel }

// PreShade classifies packets, builds one sub-chunk per app, and runs
// each sub-app's pre-shading over its sub-chunk.
func (m *MultiApp) PreShade(c *core.Chunk) core.PreResult {
	st := chunkState[multiState](c)
	st.assignment = scratch(st.assignment, len(c.Bufs))
	if st.subChunks == nil {
		st.subChunks = make([]*core.Chunk, len(m.Apps))
		for a := range st.subChunks {
			st.subChunks[a] = new(core.Chunk)
		}
		st.backRefs = make([][]int, len(m.Apps))
	}
	for a, sc := range st.subChunks {
		sc.Worker = c.Worker
		sc.Bufs = sc.Bufs[:0]
		sc.OutPorts = sc.OutPorts[:0]
		st.backRefs[a] = st.backRefs[a][:0]
	}
	d := &st.dec
	for i, b := range c.Bufs {
		app := -1
		if err := d.Decode(b.Data); err == nil {
			app = m.Classify(d, b)
		}
		st.assignment[i] = app
		c.OutPorts[i] = -1
		if app < 0 || app >= len(m.Apps) {
			continue
		}
		sc := st.subChunks[app]
		sc.Bufs = append(sc.Bufs, b)
		sc.OutPorts = append(sc.OutPorts, 0)
		st.backRefs[app] = append(st.backRefs[app], i)
	}
	total := core.PreResult{CPUCycles: float64(len(c.Bufs)) * m.ClassifyCycles}
	// Compose the launch profile from the sub-app mixes.
	var spec gpu.KernelSpec
	spec.Name = "multi"
	for a, sc := range st.subChunks {
		if len(sc.Bufs) == 0 {
			continue
		}
		pre := m.Apps[a].PreShade(sc)
		sc.Threads, sc.InBytes, sc.OutBytes, sc.StreamBytes =
			pre.Threads, pre.InBytes, pre.OutBytes, pre.StreamBytes
		total.CPUCycles += pre.CPUCycles
		total.Threads += pre.Threads
		total.InBytes += pre.InBytes
		total.OutBytes += pre.OutBytes
		total.StreamBytes += pre.StreamBytes
		k := m.Apps[a].Kernel()
		w := 1.0
		if total.Threads > 0 {
			w = float64(pre.Threads) / float64(total.Threads)
		}
		spec.RandomAccesses += float64(k.RandomAccesses * w)
		spec.ComputeCycles += float64(k.ComputeCycles * w)
		if k.StreamBytesPerSec > 0 {
			spec.StreamBytesPerSec = k.StreamBytesPerSec
		}
		spec.PerThreadNs += float64(k.PerThreadNs * w)
	}
	m.kernel = spec
	return total
}

// RunKernel executes every sub-app's kernel over its sub-chunk.
func (m *MultiApp) RunKernel(c *core.Chunk) {
	st := c.State.(*multiState)
	for a, sc := range st.subChunks {
		if len(sc.Bufs) > 0 {
			m.Apps[a].RunKernel(sc)
		}
	}
}

// PostShade finishes each sub-app and scatters the port decisions back
// into the parent chunk.
func (m *MultiApp) PostShade(c *core.Chunk) float64 {
	st := c.State.(*multiState)
	cycles := 0.0
	for a, sc := range st.subChunks {
		if len(sc.Bufs) == 0 {
			continue
		}
		cycles += m.Apps[a].PostShade(sc)
		for j, parent := range st.backRefs[a] {
			c.OutPorts[parent] = sc.OutPorts[j]
		}
	}
	return cycles
}

// CPUWork runs every sub-app's CPU path.
func (m *MultiApp) CPUWork(c *core.Chunk) float64 {
	st := c.State.(*multiState)
	cycles := 0.0
	for a, sc := range st.subChunks {
		if len(sc.Bufs) > 0 {
			cycles += m.Apps[a].CPUWork(sc)
		}
	}
	return cycles
}
