package packetshader_test

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"packetshader"
	"packetshader/internal/apps"
	"packetshader/internal/core"
	"packetshader/internal/openflow"
	"packetshader/internal/pktgen"
	"packetshader/internal/pktio"
)

var bothModes = []packetshader.Mode{packetshader.ModeCPUOnly, packetshader.ModeGPU}

// measure is the one way to take a measurement: a warm-up run, then the
// window, read by the host between the two.
func measure(t *testing.T, inst *packetshader.Instance, err error) packetshader.Report {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	inst.Run(2 * packetshader.Millisecond)
	return inst.Run(2 * packetshader.Millisecond)
}

// TestNewMatchesTypedConstructors: the typed constructors are New plus
// the application and generator they name, nothing else — the same
// options through either give the same report, field for field.
func TestNewMatchesTypedConstructors(t *testing.T) {
	ofSwitch := func() *openflow.Switch {
		sw := openflow.NewSwitch(1024)
		sw.Wildcard.Insert(openflow.Rule{Wild: openflow.WAll, Priority: 1,
			Action: openflow.Action{Type: openflow.ActionOutput, Port: 3}})
		return sw
	}
	for _, mode := range bothModes {
		opts := []packetshader.Option{packetshader.WithMode(mode),
			packetshader.WithPacketSize(256), packetshader.WithStreams(4)}

		inst, err := packetshader.IPsec(13, opts...)
		typed := measure(t, inst, err)
		inst, err = packetshader.New(apps.NewIPsecGW(packetshader.NumPorts),
			&pktgen.UDP4Source{Size: 256, Seed: 13}, opts...)
		if direct := measure(t, inst, err); !reflect.DeepEqual(typed, direct) {
			t.Errorf("mode %v: IPsec and its New form diverged:\n%+v\n%+v", mode, typed, direct)
		} else if typed.InputGbps <= 0 {
			t.Errorf("mode %v: IPsec accepted no input", mode)
		}

		inst, err = packetshader.OpenFlowSwitch(ofSwitch(), &pktgen.UDP4Source{Size: 256, Seed: 5}, opts...)
		typed = measure(t, inst, err)
		inst, err = packetshader.New(apps.NewOFSwitch(ofSwitch(), packetshader.NumPorts),
			&pktgen.UDP4Source{Size: 256, Seed: 5}, opts...)
		if direct := measure(t, inst, err); !reflect.DeepEqual(typed, direct) {
			t.Errorf("mode %v: OpenFlowSwitch and its New form diverged:\n%+v\n%+v", mode, typed, direct)
		} else if typed.DeliveredGbps <= 0 {
			t.Errorf("mode %v: OpenFlowSwitch delivered nothing", mode)
		}
	}
}

// TestInstanceCloseReleasesGoroutines: a started router holds no
// goroutine (its workers and masters are sim tasks), so Run adds none
// and Close leaves none behind; a second Close is a no-op.
func TestInstanceCloseReleasesGoroutines(t *testing.T) {
	for _, mode := range bothModes {
		base := runtime.NumGoroutine()
		inst := packetshader.Must(packetshader.IPv4(1000, 3, packetshader.WithMode(mode)))
		inst.Run(packetshader.Millisecond)
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("mode %v: %d goroutines over the baseline after Run, want none", mode, n-base)
		}
		inst.Close()
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("mode %v: %d goroutines over the baseline after Close", mode, n-base)
		}
		inst.Close()
	}
}

// preShadePanic is what panickyApp's PreShade panics with.
var preShadePanic = errors.New("pre-shade failed")

// panickyApp is a real application whose PreShade panics.
type panickyApp struct{ core.App }

func (panickyApp) PreShade(*core.Chunk) core.PreResult { panic(preShadePanic) }

// TestRouterPanicReachesRunCaller: a panic in application code on the
// router's path, here PreShade on a worker, unwinds out of Instance.Run
// to its caller, who can recover it: no goroutine of the router's own
// is there to die with it.
func TestRouterPanicReachesRunCaller(t *testing.T) {
	for _, mode := range bothModes {
		inst := packetshader.Must(packetshader.New(panickyApp{apps.NewIPsecGW(packetshader.NumPorts)},
			&pktgen.UDP4Source{Size: 64, Seed: 1}, packetshader.WithMode(mode)))
		got := func() (v any) {
			defer func() { v = recover() }()
			inst.Run(packetshader.Millisecond)
			return nil
		}()
		if got != preShadePanic {
			t.Errorf("mode %v: Run's caller recovered %v, want %v", mode, got, preShadePanic)
		}
		inst.Close()
	}
}

// TestNewRejectsNilApp: a nil application is an error at construction,
// not a panic on a sim goroutine; a nil source is legal (no generator:
// blank frames at the offered rate).
func TestNewRejectsNilApp(t *testing.T) {
	if inst, err := packetshader.New(nil, &pktgen.UDP4Source{Size: 64}); err == nil || inst != nil {
		t.Errorf("New(nil app) = %v, %v; want an error", inst, err)
	}
	inst, err := packetshader.New(apps.NewIPsecGW(packetshader.NumPorts), nil)
	if rep := measure(t, inst, err); rep.InputGbps <= 0 {
		t.Errorf("nil source: the router accepted no input (%+v)", rep)
	}
}

// TestOptionLiteralOverConfig: Config is exported so that an in-module
// caller can reach a field no With* option covers. The skb buffer mode
// is one, and it costs throughput.
func TestOptionLiteralOverConfig(t *testing.T) {
	inst, err := packetshader.IPv4(1000, 3)
	huge := measure(t, inst, err)
	inst, err = packetshader.IPv4(1000, 3, func(c *packetshader.Config) { c.IO.Mode = pktio.ModeSkb })
	skb := measure(t, inst, err)
	if skb.DeliveredGbps >= huge.DeliveredGbps {
		t.Errorf("skb buffers delivered %.2f Gbps, huge buffers %.2f: the option literal did not take effect",
			skb.DeliveredGbps, huge.DeliveredGbps)
	}
}

// TestRunNonPositiveAdvancesNoTime: Run(d) with d <= 0 returns at once
// and leaves the clock where it was, on a fresh instance as on a
// running one. The engine reads Env.Run(0) as "run to completion", and
// a router's generator never completes, so the call must not reach it.
// The wall-clock deadline turns a hang into a failure.
func TestRunNonPositiveAdvancesNoTime(t *testing.T) {
	inst := packetshader.Must(packetshader.IPv4(1000, 1))
	run := func(d packetshader.Duration) packetshader.Report {
		t.Helper()
		done := make(chan packetshader.Report, 1)
		go func() { done <- inst.Run(d) }()
		select {
		case rep := <-done:
			return rep
		case <-time.After(5 * time.Second):
			t.Fatalf("Run(%v) did not return within 5 s", d)
		}
		panic("unreachable")
	}
	for _, step := range []struct {
		d    packetshader.Duration
		want packetshader.Time
	}{
		{0, 0},
		{-packetshader.Millisecond, 0},
		{packetshader.Millisecond, packetshader.Time(packetshader.Millisecond)},
		{0, packetshader.Time(packetshader.Millisecond)},
		{-packetshader.Millisecond, packetshader.Time(packetshader.Millisecond)},
	} {
		rep := run(step.d)
		if now := inst.Env.Now(); now != step.want {
			t.Fatalf("after Run(%v) the clock reads %v, want %v", step.d, now, step.want)
		}
		if step.d <= 0 && (rep.DeliveredGbps != 0 || rep.InputGbps != 0) {
			t.Errorf("Run(%v) measured an empty window as %+v", step.d, rep)
		}
	}
	inst.Close() // not deferred: after a hang, Close would panic mid-Run
}
