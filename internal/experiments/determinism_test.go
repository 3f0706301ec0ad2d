package experiments

import (
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
