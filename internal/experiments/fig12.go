package experiments

import (
	"fmt"

	"packetshader"
	"packetshader/internal/apps"
	"packetshader/internal/core"
	"packetshader/internal/hw/gpu"
	"packetshader/internal/model"
	"packetshader/internal/pktgen"
	"packetshader/internal/sim"
)

// fig12 regenerates Figure 12: average round-trip latency of IPv6
// forwarding (64B packets) versus the offered input traffic level, for
// (i) CPU-only without batching, (ii) CPU-only with batching, and
// (iii) CPU+GPU with batching and parallelization.
func fig12(c *Ctx) *Result {
	r := &Result{
		ID:     "fig12",
		Title:  "Average round-trip latency, IPv6 forwarding 64B (us)",
		Header: []string{"Offered Gbps", "CPU no-batch", "CPU batch", "CPU+GPU"},
	}
	measure := func(offered float64, opts ...packetshader.Option) float64 {
		return ipv6Run(21, 6*sim.Millisecond, append(opts,
			packetshader.WithOfferedGbps(offered/float64(model.NumPorts)))...).MeanLatencyUs
	}

	offeredLevels := []float64{1, 4, 8, 12, 16, 20, 24, 28}
	// One job per (offered load, variant) cell — three independent
	// router worlds per row.
	vals := MapPoints(c, 3*len(offeredLevels), func(k int, _ *Point) float64 {
		offered := offeredLevels[k/3]
		switch k % 3 {
		case 0:
			// A one-packet chunk is a one-packet fetch: no batching
			// anywhere on the path.
			return measure(offered, packetshader.WithMode(core.ModeCPUOnly), packetshader.WithChunkCap(1))
		case 1:
			return measure(offered, packetshader.WithMode(core.ModeCPUOnly))
		default:
			return measure(offered)
		}
	})
	for i, offered := range offeredLevels {
		r.AddRow(Num("%.0f", offered),
			Num("%.0f", vals[3*i]), Num("%.0f", vals[3*i+1]), Num("%.0f", vals[3*i+2]))
	}
	r.Note("batching lowers latency (less queueing); the GPU path adds a bounded overhead")
	r.Note("elevated latency at the lightest load comes from NIC interrupt moderation (§6.4)")
	return r
}

// ipv6Run stands the IPv6 forwarder (64B packets over the shared
// 200k-prefix table) up through the facade with opts, runs it for d from
// a cold start and returns the report: one cell of Figure 12 or of the
// ablation table.
func ipv6Run(seed uint64, d sim.Duration, opts ...packetshader.Option) packetshader.Report {
	entries, tbl := IPv6Fixture()
	inst := packetshader.Must(packetshader.New(
		&apps.IPv6Fwd{Table: tbl, NumPorts: model.NumPorts},
		&pktgen.UDP6Source{Size: 64, Seed: seed, Table: entries}, opts...))
	defer inst.Close()
	return inst.Run(d)
}

// pipeline is the CPU+GPU path's accounting table, the counterpart of
// Table 3's for the skb path: for IPv4 and IPv6 forwarding at 64 B and
// 1514 B under full load, and for Figure 12's lightest CPU+GPU point
// (IPv6 64 B, 1 Gbps offered in total, whose latency deviation 3 is
// about), over Figure 11's measured window only, where a chunk spends
// its time (the mean per stage, between the stamps of core.Stages),
// what a GPU launch carries and is made of, and how busy every core and
// server is. The chunk residence runs from the
// worker's poll to the end of its TX hand-off; the frame latency mean
// beside it adds the frame's wait in the RX ring and its TX DMA, queue
// and wire time.
func pipeline(c *Ctx) *Result {
	r := &Result{
		ID:     "pipeline",
		Title:  "CPU+GPU pipeline over the measured window: mean per chunk (us) and busy share (%)",
		Header: []string{"Quantity", "IPv4 64B", "IPv4 1514B", "IPv6 64B", "IPv6 1514B", "IPv6 64B 1Gbps"},
	}
	cols := MapPoints(c, 5, func(k int, _ *Point) [][2]Cell {
		size := []int{64, 1514}[k%2]
		if k < 2 {
			entries, tbl := BGPFixture()
			return pipelineColumn(size, &apps.IPv4Fwd{Table: tbl, NumPorts: model.NumPorts},
				&pktgen.UDP4Source{Size: size, Seed: 11, Table: entries})
		}
		var load []packetshader.Option
		if k == 4 {
			load = append(load, packetshader.WithOfferedGbps(1.0/model.NumPorts))
		}
		entries, tbl := IPv6Fixture()
		return pipelineColumn(size, &apps.IPv6Fwd{Table: tbl, NumPorts: model.NumPorts},
			&pktgen.UDP6Source{Size: size, Seed: 12, Table: entries}, load...)
	})
	// Every column builds the same topology, so its rows, servers
	// included, come in one order under one set of labels.
	for i, first := range cols[0] {
		row := []Cell{first[0]}
		for _, col := range cols {
			row = append(row, col[i][1])
		}
		r.AddRow(row...)
	}
	r.Note("workers work: stages rx_fetch (empty polls included) + pre_shade + post_shade + tx over %d worker cores, less their waits for RX DMA and TX ring room (workers wait); masters: launches and fallbacks over %d",
		model.NumNodes*(model.CoresPerNode-1), model.NumNodes)
	r.Note("stage means are of the chunks completed in the window; the workers' and masters' shares are of the window, clipped at its edges")
	r.Note("chunks/launch and the launch rows (us) are means per GPU launch completed in the window, exec including the wait for the exec engine; the servers' shares are clipped at the window's edges too")
	r.Note("IPv6 64B 1Gbps is Figure 12's lightest CPU+GPU point, 1 Gbps offered in total; the other columns are at full load")
	return r
}

// pipelineColumn runs one CPU+GPU router, at full load unless load says
// otherwise, through Figure 11's warm-up and window and returns its
// column of the pipeline table as (label, value) rows: the mean of each
// stage and of the residence per chunk completed in the window, the
// mean latency of the frames delivered in it, the chunks and the five
// parts (gpu.PartNames) of the GPU launches completed in it, the worker
// cores' share of work and of waits in the packet I/O engine, and the
// busy share of the master cores and every server.
func pipelineColumn(size int, app core.App, src packetshader.Source, load ...packetshader.Option) [][2]Cell {
	inst := packetshader.Must(packetshader.New(app, src, append([]packetshader.Option{
		packetshader.WithMode(core.ModeGPU), packetshader.WithPacketSize(size)}, load...)...))
	defer inst.Close()
	warm := inst.Run(appWarmup)
	servers := inst.Env.Servers()
	busy := make([]sim.Duration, len(servers))
	for i, s := range servers {
		busy[i] = s.BusyTime()
	}
	launches := func() (p gpu.LaunchParts, chunks uint64) {
		for _, d := range inst.Router.Devices {
			p.Launches += d.Parts.Launches
			for i, t := range d.Parts.Time {
				p.Time[i] += t
			}
		}
		return p, inst.Router.Stats.ChunksGPU
	}
	parts, chunksGPU := launches()
	workerBusy, masterBusy := inst.Router.WorkerBusy(), inst.Router.MasterBusy()
	blocked := inst.Router.Engine.Blocked()
	// The sink's latency sum, in us; the conversion keeps the product
	// from fusing into the difference below.
	latencySum := func() float64 { return float64(inst.Sink.MeanMicros() * float64(inst.Sink.Count)) }
	frames, latency := inst.Sink.Count, latencySum()
	rep := inst.Run(appWindow)

	var rows [][2]Cell
	add := func(label string, v Cell) { rows = append(rows, [2]Cell{Label(label), v}) }
	chunks := float64(rep.Stages.Chunks - warm.Stages.Chunks)
	var stage [core.NumStages]sim.Duration
	var residence sim.Duration
	for i, name := range core.StageNames {
		stage[i] = rep.Stages.Time[i] - warm.Stages.Time[i]
		residence += stage[i]
		add("stage "+name, Num("%.2f", stage[i].Microseconds()/chunks))
	}
	add("chunk residence", Num("%.2f", residence.Microseconds()/chunks))
	add("frame latency", Num("%.2f", (latencySum()-latency)/float64(inst.Sink.Count-frames)))
	endParts, endChunks := launches()
	n := float64(endParts.Launches - parts.Launches)
	add("chunks/launch", Num("%.2f", float64(endChunks-chunksGPU)/n))
	for i, name := range gpu.PartNames {
		add("launch "+name, Num("%.2f", (endParts.Time[i]-parts.Time[i]).Microseconds()/n))
	}
	share := func(d sim.Duration, cores int) Cell {
		return Num("%.1f", 100*float64(d)/float64(cores)/float64(appWindow))
	}
	workers := model.NumNodes * (model.CoresPerNode - 1)
	worker := inst.Router.WorkerBusy() - workerBusy
	wait := inst.Router.Engine.Blocked() - blocked
	add("workers work", share(worker-wait, workers))
	add("workers wait", share(wait, workers))
	add("masters", share(inst.Router.MasterBusy()-masterBusy, model.NumNodes))
	for i, s := range servers {
		add(fmt.Sprintf("%s#%d", s.Name(), s.ID()), share(s.BusyTime()-busy[i], 1))
	}
	return rows
}

// workerCycles is Table 3 for the CPU+GPU worker path: the worker CPU
// cycles one full chunk of 64 B IPv4 packets costs, by the model
// constant that charges them, and the stage each falls in. RX charges
// the fetch's batch and per-packet halves (pktio.FetchChunk); TX splits
// the chunk evenly over the ports, one Send per port, those of the
// other node at RemoteMemFactor (pktio.Engine.Send); the app charges
// pre- and post-shading per packet and runs the lookup on the GPU. The
// measured row is the same four stages' means per chunk of a full-load
// run over Figure 11's window; the budget is what one chunk may cost
// for the six workers to carry the paper's 39 Gbps.
func workerCycles(c *Ctx) *Result {
	r := &Result{
		ID:     "workers",
		Title:  "Worker CPU cycles per chunk (CPU+GPU, IPv4 64B, 256 packets)",
		Header: []string{"Cost", "Stage", "Cycles", "us", "Share"},
	}
	const size = 64
	n := float64(model.MaxChunkSize)
	local := float64(model.NumPorts / model.NumNodes)
	remote := float64(model.NumPorts) - local
	ports := local + remote*model.RemoteMemFactor // per-port TX charges, remote ones inflated
	costs := []struct {
		name, stage string
		cycles      float64
	}{
		{"IOBatchCycles x IORxShare", "rx_fetch", model.IOBatchCycles * model.IORxShare},
		{"IOPerPacketCycles x IORxShare", "rx_fetch", n * model.IOPerPacketCycles * model.IORxShare},
		{"CopyCyclesPerByte beyond 64B", "rx_fetch", n * (size - 64) * model.CopyCyclesPerByte},
		{"AppIPv4PreCycles", "pre_shade", n * model.AppIPv4PreCycles},
		{"IPv4 lookup", "GPU", 0},
		{"AppIPv4PostCycles", "post_shade", n * model.AppIPv4PostCycles},
		{"IOBatchCycles x IOTxShare", "tx", float64(model.IOBatchCycles*model.IOTxShare) * ports},
		{"IOPerPacketCycles x IOTxShare", "tx", float64(n/float64(model.NumPorts)*model.IOPerPacketCycles*model.IOTxShare) * ports},
	}
	var total float64
	for _, k := range costs {
		total += k.cycles
	}
	us := func(cycles float64) Cell { return Num("%.2f", model.Cycles(cycles).Microseconds()) }
	for _, k := range costs {
		r.AddRow(Label(k.name), Label(k.stage), Num("%.0f", k.cycles), us(k.cycles), Num("%.1f%%", 100*k.cycles/total))
	}
	r.AddRow(Label("total"), Label("-"), Num("%.0f", total), us(total), Num("%.1f%%", 100.0))

	measured := MapPoints(c, 1, func(int, *Point) sim.Duration {
		entries, tbl := BGPFixture()
		inst := packetshader.Must(packetshader.New(&apps.IPv4Fwd{Table: tbl, NumPorts: model.NumPorts},
			&pktgen.UDP4Source{Size: size, Seed: 11, Table: entries},
			packetshader.WithMode(core.ModeGPU), packetshader.WithPacketSize(size)))
		defer inst.Close()
		before := inst.Run(appWarmup).Stages
		after := inst.Run(appWindow).Stages
		var d sim.Duration
		for i, name := range core.StageNames {
			switch name {
			case "rx_fetch", "pre_shade", "post_shade", "tx":
				d += after.Time[i] - before.Time[i]
			}
		}
		return d / sim.Duration(after.Chunks-before.Chunks)
	})[0]
	r.AddRow(Label("measured"), Label("worker stages"), Num("%.0f", model.CyclesOf(measured)), Num("%.2f", measured.Microseconds()), Label("-"))
	workers := model.NumNodes * (model.CoresPerNode - 1)
	paperGbps := paperValue("fig11a", "64", "CPU+GPU")
	budget := float64(workers) * n / (paperGbps * 1e9 / (float64(model.WireBytes(size)) * 8))
	r.AddRow(Label("budget at paper Gbps"), Label("-"), Num("%.0f", budget*model.CPUFreqHz), Num("%.2f", budget*1e6), Label("-"))
	r.Note("TX splits a chunk over %d ports, one Send each; the %.0f on the other node cost RemoteMemFactor %.2f times as much",
		model.NumPorts, remote, model.RemoteMemFactor)
	r.Note("paper: Fig 5's %.2f Gbps at batch 1 and %.1f at batch 64 fix IOBatchCycles and IOPerPacketCycles (%.0f cycles per packet for RX+TX at batch 64); it gives no per-packet cost for pre- or post-shading",
		paperValue("fig5", "1", "Forwarding Gbps"), paperValue("fig5", "64", "Forwarding Gbps"),
		float64(model.IOBatchCycles/64)+model.IOPerPacketCycles)
	r.Note("budget: the time between one worker's chunks when %d workers share the paper's %.0f Gbps (fig11a, 64B); a chunk that costs more binds the workers beside the masters (deviation 1)",
		workers, paperGbps)
	return r
}
