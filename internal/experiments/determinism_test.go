package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"packetshader/internal/apps"
	"packetshader/internal/core"
	"packetshader/internal/model"
	"packetshader/internal/pktgen"
	"packetshader/internal/route"
	"packetshader/internal/sim"

	lookupv4 "packetshader/internal/lookup/ipv4"
)

// render prints a result to a buffer, exactly as `pshader experiments`
// would emit it.
func render(r *Result) string {
	var b bytes.Buffer
	r.Print(&b)
	return b.String()
}

// TestExperimentsDeterministicAcrossRuns is the end-to-end counterpart
// of the pslint determinism linters (cmd/pslint): the static analyzers
// forbid wall-clock time, unseeded randomness and order-sensitive map
// iteration, and this test checks the invariant they guard — running
// the same experiment twice in one process yields byte-identical
// output. It covers the §2 microbenchmarks including the Fig 2
// latency-hiding sweep, which exercises the full sim stack (virtual
// clock, GPU model, PCIe IOH, batched IPv6 lookups).
func TestExperimentsDeterministicAcrossRuns(t *testing.T) {
	cases := []struct {
		name string
		run  func(*Ctx) *Result
	}{
		{"table1", table1},
		{"launch", launchLatency},
		{"fig2", fig2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			first := render(runSolo(c.run))
			second := render(runSolo(c.run))
			if first == second {
				return
			}
			// Pinpoint the first differing line for a usable failure.
			fl, sl := bytes.Split([]byte(first), []byte("\n")), bytes.Split([]byte(second), []byte("\n"))
			for i := 0; i < len(fl) && i < len(sl); i++ {
				if !bytes.Equal(fl[i], sl[i]) {
					t.Fatalf("run-to-run output diverged at line %d:\n  first:  %s\n  second: %s",
						i+1, fl[i], sl[i])
				}
			}
			t.Fatalf("run-to-run output diverged in length: %d vs %d bytes", len(first), len(second))
		})
	}
}

// TestPooledHotPathDeterminism covers the allocation-pooled fast path:
// a GPU-mode IPv4 run long enough that chunks, app scratch state, and
// packet buffers are recycled many times over. Two identical runs must
// produce identical counters — a pooled object leaking stale state into
// the next chunk would show up here as diverging or wrong stats. The
// ChunkReuses counter proves recycling actually occurred (the test is
// vacuous without it).
func TestPooledHotPathDeterminism(t *testing.T) {
	entries := route.GenerateBGPTable(2000, 64, 7)
	tbl, err := lookupv4.Build(entries)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (string, uint64) {
		env := sim.NewEnv()
		cfg := core.DefaultConfig()
		cfg.PacketSize = 64
		cfg.Mode = core.ModeGPU
		r := core.New(env, cfg, &apps.IPv4Fwd{Table: tbl, NumPorts: model.NumPorts})
		r.SetSource(&pktgen.UDP4Source{Size: 64, Seed: 7, Table: entries})
		r.Start()
		env.Run(sim.Time(4 * sim.Millisecond))
		return fmt.Sprintf("%+v delivered=%.6f", r.Stats, r.DeliveredGbps()), r.Stats.ChunkReuses
	}
	first, reuses := run()
	second, _ := run()
	if first != second {
		t.Errorf("pooled run diverged:\n  first:  %s\n  second: %s", first, second)
	}
	if reuses == 0 {
		t.Error("ChunkReuses = 0: the pooled path never recycled a chunk, test is vacuous")
	}
}
