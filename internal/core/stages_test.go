package core_test

import (
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

// TestStageSumsAddUpToResidence: on an IPv4 CPU+GPU run every completed
// chunk's stage stamps are nondecreasing, and the router's per-stage
// sums add up, to the picosecond, to the sum over completed chunks of
// TX hand-off end minus fetch start; each stage's core.stage.<name>
// histogram holds one sample per completed chunk and sums to that
// stage's time.
func TestStageSumsAddUpToResidence(t *testing.T) {
	entries := route.GenerateBGPTable(2000, 64, 7)
	tbl, err := lookupv4.Build(entries)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	defer env.Close()
	r := core.New(env, core.DefaultConfig(), &apps.IPv4Fwd{Table: tbl, NumPorts: model.NumPorts})
	reg := obs.NewRegistry()
	r.EnableObs(nil, reg)
	var chunks uint64
	var residence sim.Duration
	core.OnChunkDone(r, func(stamps []sim.Time) {
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[i-1] {
				t.Fatalf("chunk %d: stamp %d at %v before stamp %d at %v", chunks, i, stamps[i], i-1, stamps[i-1])
			}
		}
		chunks++
		residence += sim.Duration(stamps[len(stamps)-1] - stamps[0])
	})
	r.SetSource(&pktgen.UDP4Source{Size: 64, Seed: 7, Table: entries})
	r.Start()
	env.Run(sim.Time(3 * sim.Millisecond))

	s := r.Stages
	var sum sim.Duration
	for _, d := range s.Time {
		sum += d
	}
	if s.Chunks != chunks || sum != residence {
		t.Errorf("stages: %d chunks, %v ps in all; completed chunks: %d, %v ps from fetch start to TX end",
			s.Chunks, int64(sum), chunks, int64(residence))
	}
	// Each stage's histogram holds one sample per completed chunk, and
	// its samples sum to that stage's time to the picosecond.
	names := []string{"rx_fetch", "pre_shade", "queue", "work", "output", "post_shade", "tx"}
	for i, name := range names {
		h := reg.Histogram("core.stage."+name, obs.UnitDuration)
		if h.Count() != s.Chunks || h.Sum() != int64(s.Time[i]) {
			t.Errorf("hist core.stage.%s: %d samples summing to %d ps; stage %d: %d chunks, %d ps",
				name, h.Count(), h.Sum(), i, s.Chunks, int64(s.Time[i]))
		}
	}
	if r.Stats.ChunksGPU == 0 || s.Time[core.StageQueue] == 0 || s.Time[core.StageWork] == 0 {
		t.Errorf("the run must offload: %d GPU chunks, queue %v, work %v", r.Stats.ChunksGPU, s.Time[core.StageQueue], s.Time[core.StageWork])
	}
}
