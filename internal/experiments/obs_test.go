package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"packetshader/internal/apps"
	"packetshader/internal/core"
	"packetshader/internal/model"
	"packetshader/internal/obs"
	"packetshader/internal/pktgen"
	"packetshader/internal/route"
	"packetshader/internal/sim"

	lookupv4 "packetshader/internal/lookup/ipv4"
)

// TestObsOutputByteIdenticalAcrossRuns drives a short IPv4 CPU+GPU run
// with full observability on and checks what the three obs streams
// hold: trace, metrics and occupancy report are non-empty, and the
// trace is well-formed Chrome trace JSON with a span from every
// pipeline stage. The byte identity its name promises is checked
// against checked-in bytes instead of a second run: the pshaderd replay
// in scripts/check.sh (stdout and trace digest under cmd/pshader) and
// the fig11 metrics dumps in TestGoldenOutputs.
func TestObsOutputByteIdenticalAcrossRuns(t *testing.T) {
	entries := route.GenerateBGPTable(2000, 64, 7)
	tbl, err := lookupv4.Build(entries)
	if err != nil {
		t.Fatal(err)
	}

	env := sim.NewEnv()
	cfg := core.DefaultConfig()
	cfg.PacketSize = 64
	r := core.New(env, cfg, &apps.IPv4Fwd{Table: tbl, NumPorts: model.NumPorts})
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	sampler := obs.NewServerSampler(tr)
	env.SetHooks(sampler)
	r.EnableObs(tr, reg)
	r.SetSource(&pktgen.UDP4Source{Size: 64, Seed: 7, Table: entries})
	r.Start()
	env.Run(sim.Time(2 * sim.Millisecond))
	r.ObserveStats()

	var tb, mb, ub bytes.Buffer
	if err := tr.WriteJSON(&tb); err != nil {
		t.Fatal(err)
	}
	if err := reg.Dump(&mb); err != nil {
		t.Fatal(err)
	}
	if err := sampler.WriteReport(&ub, env.Now()); err != nil {
		t.Fatal(err)
	}
	if tb.Len() == 0 || mb.Len() == 0 || ub.Len() == 0 {
		t.Fatal("an obs output stream is empty")
	}

	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	want := map[string]bool{
		"rx-fetch": false, "pre-shade": false, "post-shade": false,
		"tx": false, "gpu-launch": false, "h2d": false,
		"kernel:ipv4-lookup": false, "d2h": false, "sync": false,
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			if _, ok := want[ev.Name]; ok {
				want[ev.Name] = true
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace has no %q span", name)
		}
	}
}

// TestObsSpansCoverGPUAndPCIeBusyTime checks the acceptance criterion
// that occupancy spans cover at least 95% of GPU and PCIe busy time —
// by construction they tile it exactly, since every sim.Server
// reservation emits one span through the Env hook.
func TestObsSpansCoverGPUAndPCIeBusyTime(t *testing.T) {
	entries := route.GenerateBGPTable(2000, 64, 7)
	tbl, err := lookupv4.Build(entries)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	cfg := core.DefaultConfig()
	cfg.PacketSize = 64
	r := core.New(env, cfg, &apps.IPv4Fwd{Table: tbl, NumPorts: model.NumPorts})
	sampler := obs.NewServerSampler(obs.NewTracer())
	env.SetHooks(sampler)
	r.SetSource(&pktgen.UDP4Source{Size: 64, Seed: 7, Table: entries})
	r.Start()
	env.Run(sim.Time(2 * sim.Millisecond))

	var iohBusy, gpuBusy sim.Duration
	for _, ioh := range r.Engine.IOHs {
		iohBusy += ioh.UpBusy() + ioh.DownBusy()
	}
	for _, d := range r.Devices {
		gpuBusy += d.Link.UpBusy() + d.Link.DownBusy() + d.ExecBusy()
	}
	if iohBusy == 0 || gpuBusy == 0 {
		t.Fatalf("no PCIe/GPU work done (ioh=%v gpu=%v); load generator broken", iohBusy, gpuBusy)
	}
	// 100% ≥ the acceptance criterion's 95%.
	if got := sampler.BusyByName("ioh"); got != iohBusy {
		t.Errorf("sampled IOH busy %v != actual %v", got, iohBusy)
	}
	if got := sampler.BusyByName("gpu"); got != gpuBusy {
		t.Errorf("sampled GPU busy %v != actual %v", got, gpuBusy)
	}
}
