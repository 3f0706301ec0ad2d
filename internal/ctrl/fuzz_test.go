package ctrl_test

import (
	"bytes"
	"reflect"
	"testing"

	"packetshader/internal/ctrl"
	"packetshader/internal/faults"
	"packetshader/internal/sim"
)

// FuzzParseScript feeds ParseScript arbitrary bytes. It must never
// panic; the same bytes must parse to DeepEqual scripts (or fail both
// times); and every command of an accepted script must lie inside the
// ranges ParseScript's comment promises, so nothing downstream meets a
// negative offset, index or count. The in-code seeds are the parser
// tests' scripts; testdata/fuzz/FuzzParseScript holds one line per verb
// plus the inputs that used to slip through (NaN and overflowing
// offsets).
func FuzzParseScript(f *testing.F) {
	f.Add([]byte(demoScript))
	f.Add([]byte("@1ms route add 10.0.0.0/8 via 1\n@1ms route del 10.0.0.0/8\n@2ms stats"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ctrl.ParseScript(bytes.NewReader(data))
		again, err2 := ctrl.ParseScript(bytes.NewReader(data))
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(s, again) {
			t.Fatalf("same bytes parsed differently: %v / %v", err, err2)
		}
		if err != nil {
			return
		}
		const maxDur = 1e6 * sim.Second
		for _, c := range s.Commands() {
			if c.At < 0 || c.At > maxDur {
				t.Fatalf("%+v: offset outside 0..1e6s", c)
			}
			switch c.Op {
			case ctrl.OpRoute:
				if len(c.Routes) == 0 {
					t.Fatalf("%+v: empty route batch", c)
				}
				for _, u := range c.Routes {
					if u.Prefix.Len > 32 || uint32(u.Prefix.Addr)&^u.Prefix.Mask() != 0 || u.Act > ctrl.ActReplace {
						t.Fatalf("%+v: bad route update %+v", c, u)
					}
				}
			case ctrl.OpChunkCap, ctrl.OpGatherMax:
				if c.N < 1 || c.N > 65535 {
					t.Fatalf("%+v: count outside 1..65535", c)
				}
			case ctrl.OpFault:
				e := c.Fault
				if e.Kind > faults.KindRxDropBurst || e.At != c.At {
					t.Fatalf("%+v: unknown fault kind or an event off its command's offset", c)
				}
				if e.Port < 0 || e.Port > 65535 || e.Node < 0 || e.Node > 65535 {
					t.Fatalf("%+v: index outside 0..65535", c)
				}
				if e.Kind == faults.KindPCIeRetrain && (e.Div < 1 || e.Div > 65535) {
					t.Fatalf("%+v: divisor outside 1..65535", c)
				}
				if e.Kind == faults.KindRxDropBurst && (e.Dur <= 0 || e.Dur > maxDur) {
					t.Fatalf("%+v: burst duration outside (0, 1e6s]", c)
				}
			case ctrl.OpOpportunistic, ctrl.OpStats, ctrl.OpMetrics:
			default:
				t.Fatalf("%+v: unknown op", c)
			}
		}
	})
}
