package experiments

import (
	"strconv"
	"testing"

	"packetshader/internal/sim"
)

// TestFaultScenarioDeterministicAndShaped checks that the degradation
// curve has the advertised shape: full throughput, a CPU-only plateau
// within the envelope during the outage, and recovery back to baseline
// after the repair. The determinism half of its name is
// TestGoldenOutputs' faults.txt, which pins the scenario's bytes.
func TestFaultScenarioDeterministicAndShaped(t *testing.T) {
	if testing.Short() {
		t.Skip("full fault scenario in -short mode")
	}
	res := runSolo(faultScenario)
	envelope := cpuOnlyEnvelope()
	repairMs := int((faultAt + faultOutageLen) / sim.Millisecond)
	var baselineSum float64
	var baselineN int
	for _, row := range res.Rows {
		tMs, err := strconv.Atoi(row[0])
		if err != nil {
			t.Fatalf("bad t_ms cell %q: %v", row[0], err)
		}
		gbps, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("bad Gbps cell %q: %v", row[1], err)
		}
		switch row[2] {
		case "baseline":
			baselineSum += gbps
			baselineN++
		case "outage":
			if gbps <= 0 {
				t.Errorf("t=%dms: throughput collapsed to %.2f during outage", tMs, gbps)
			}
			if gbps > envelope*1.10 {
				t.Errorf("t=%dms: outage throughput %.2f exceeds CPU-only envelope %.2f",
					tMs, gbps, envelope)
			}
		}
	}
	baseline := baselineSum / float64(baselineN)
	if baseline <= envelope {
		t.Fatalf("baseline %.2f not above CPU-only envelope %.2f — GPU mode added nothing", baseline, envelope)
	}
	// Recovery: the first full window after the repair must be back near
	// baseline (the probe fires within one backoff of the repair).
	for _, row := range res.Rows {
		if tMs, _ := strconv.Atoi(row[0]); tMs == repairMs+1 {
			gbps, _ := strconv.ParseFloat(row[1], 64)
			if gbps < 0.8*baseline {
				t.Errorf("t=%dms (first window after repair): %.2f Gbps, want >= 80%% of baseline %.2f",
					tMs, gbps, baseline)
			}
			return
		}
	}
	t.Fatalf("no row for t=%dms, one window after repair", repairMs+1)
}
