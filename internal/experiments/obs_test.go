package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
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
	env.SetHooks(obs.NewServerSampler(tr))
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
	if err := obs.WriteUtil(&ub, env); err != nil {
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

// spanTotals is a sim.Hooks that totals each server's spans: n counts
// them, closed sums those already over when a later one was booked, and
// ahead keeps the rest, which may still run past a reading.
type spanTotals map[*sim.Server]*spanTotal

type spanTotal struct {
	n      uint64
	closed sim.Duration
	ahead  [][2]sim.Time
}

func (h spanTotals) ServerBusy(s *sim.Server, start, end sim.Time) {
	c := h[s]
	if c == nil {
		c = &spanTotal{}
		h[s] = c
	}
	c.n++
	// A FIFO server's spans come in time order, so those over are a prefix.
	k := 0
	for k < len(c.ahead) && c.ahead[k][1] <= s.Now() {
		c.closed += sim.Duration(c.ahead[k][1] - c.ahead[k][0])
		k++
	}
	c.ahead = append(c.ahead[:copy(c.ahead, c.ahead[k:])], [2]sim.Time{start, end})
}

// busyAt returns the spans' total clipped at now: the service they give
// up to now.
func (c *spanTotal) busyAt(now sim.Time) sim.Duration {
	busy := c.closed
	for _, sp := range c.ahead {
		if sp[0] < now {
			busy += sim.Duration(min(sp[1], now) - sp[0])
		}
	}
	return busy
}

// TestObsSpansCoverGPUAndPCIeBusyTime: on a running router, the spans
// the hooks see — the TX path's per-packet Report calls included —
// clipped at the end of the run cover every server's busy time exactly,
// and each server's own span count and busy time, which the util lines
// print, equal them, service booked past the end included in neither.
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
	spans := spanTotals{}
	env.SetHooks(spans)
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
	var spanned, ahead sim.Duration
	for _, s := range env.Servers() {
		c := spans[s]
		if c == nil {
			c = &spanTotal{}
		}
		busy := c.busyAt(env.Now())
		if c.n != s.Spans() || busy != s.BusyTime() {
			t.Errorf("%s#%d: hooks saw %d spans over %v up to %v, the server counts %d over %v",
				s.Name(), s.ID(), c.n, busy, env.Now(), s.Spans(), s.BusyTime())
		}
		if strings.HasPrefix(s.Name(), "ioh") || strings.HasPrefix(s.Name(), "gpu") {
			spanned += busy
		}
		ahead += s.Backlog()
	}
	if ahead == 0 {
		t.Error("no service is booked past the end of the run, so nothing is clipped")
	}
	if spanned != iohBusy+gpuBusy {
		t.Errorf("IOH and GPU spans cover %v, their busy time is %v", spanned, iohBusy+gpuBusy)
	}
}
