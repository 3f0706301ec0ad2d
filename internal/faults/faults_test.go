package faults

import (
	"reflect"
	"testing"

	"packetshader/internal/sim"
)

func TestPlanEventsSortedStable(t *testing.T) {
	pl := NewPlan().
		GPUOutage(0, 5*sim.Millisecond, 2*sim.Millisecond).
		LinkFlap(3, 1*sim.Millisecond, 1*sim.Millisecond).
		RxDropBurst(1, 5*sim.Millisecond, 100*sim.Microsecond)
	evs := pl.Events()
	if len(evs) != 5 {
		t.Fatalf("events = %d, want 5", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events not sorted: %v after %v", evs[i].At, evs[i-1].At)
		}
	}
	// Same-offset events keep insertion order: gpu-fail before burst.
	if evs[2].Kind != KindGPUFail || evs[3].Kind != KindRxDropBurst {
		t.Errorf("tie-break broken: got %v then %v", evs[2].Kind, evs[3].Kind)
	}
	// Events must not mutate the plan's own order.
	if pl.events[0].Kind != KindGPUFail {
		t.Error("Events() sorted the plan in place")
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	a := Random(42, 20*sim.Millisecond, 8, 2, 6)
	b := Random(42, 20*sim.Millisecond, 8, 2, 6)
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Error("same seed produced different plans")
	}
	if a.Len() < 6 {
		t.Errorf("plan has %d events for 6 episodes", a.Len())
	}
	c := Random(43, 20*sim.Millisecond, 8, 2, 6)
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Error("different seeds produced identical plans")
	}
	for _, ev := range a.Events() {
		if ev.At < 0 || ev.At > 20*sim.Millisecond+20*sim.Millisecond/16 {
			t.Errorf("event offset %v outside horizon", ev.At)
		}
		if ev.Port < 0 || ev.Port >= 8 || ev.Node < 0 || ev.Node >= 2 {
			t.Errorf("event target out of range: %+v", ev)
		}
	}
}

func TestNilAndEmptyPlans(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Len() != 0 || nilPlan.Events() != nil {
		t.Error("nil plan is not inert")
	}
	if NewPlan().Len() != 0 {
		t.Error("empty plan has events")
	}
}
