package packetshader_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"packetshader"
	"packetshader/internal/apps"
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

// TestInstanceCloseReleasesGoroutines: a started router parks one
// goroutine per worker and master; Close gives every one of them back,
// and a second Close is a no-op.
func TestInstanceCloseReleasesGoroutines(t *testing.T) {
	for _, mode := range bothModes {
		base := runtime.NumGoroutine()
		inst := packetshader.Must(packetshader.IPv4(1000, 3, packetshader.WithMode(mode)))
		inst.Run(packetshader.Millisecond)
		if n := runtime.NumGoroutine(); n < base+8 {
			t.Fatalf("mode %v: %d goroutines over the baseline after Run, want 8 (workers + masters)", mode, n-base)
		}
		inst.Close()
		// Close returns once every process has acknowledged; its goroutine
		// exits a few instructions later.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("mode %v: %d goroutines still over the baseline after Close", mode, runtime.NumGoroutine()-base)
			}
			runtime.Gosched()
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
