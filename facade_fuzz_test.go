package packetshader_test

import (
	"encoding/binary"
	"math"
	"testing"

	"packetshader"
	"packetshader/internal/faults"
	"packetshader/internal/openflow"
	"packetshader/internal/pktgen"
	"packetshader/internal/sim"
)

// optionBytes reads fuzz input one field at a time; a read past the end
// yields zeros, so every input decodes to some option combination.
type optionBytes []byte

func (b *optionBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func (b *optionBytes) u16() uint16 { return uint16(b.next())<<8 | uint16(b.next()) }

func (b *optionBytes) u64() uint64 {
	var w [8]byte
	for i := range w {
		w[i] = b.next()
	}
	return binary.BigEndian.Uint64(w[:])
}

// offeredSpecials are the offered loads a selector byte below their
// count picks; a larger selector reads the next eight bytes as a
// float64.
var offeredSpecials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1,
	math.Copysign(0, -1), 0, 1e-9, 1, 10, 40, 1e300}

// decodeOptions turns fuzz input into an application (0 IPv4, 1 IPv6,
// 2 IPsec, 3 OpenFlow), the packet size a caller-supplied source would
// use, and an option list. Byte 0 picks the application, bytes 1 and 2
// say which options follow, and each present option reads its value in
// order: mode (int8), packet size (int16), offered Gbps (a selector
// byte, see offeredSpecials), streams (int8), chunk cap (int16), gather
// max (int8), FIB update mode (int8) and up to three fault events
// (kind, port, node, at and duration in ns, divisor), then the flags
// for opportunistic offload and no pipelining.
func decodeOptions(data []byte) (app, size int, opts []packetshader.Option) {
	b := optionBytes(data)
	app = int(b.next() % 4)
	has, flags := b.next(), b.next()
	size = 64
	if has&1 != 0 {
		opts = append(opts, packetshader.WithMode(packetshader.Mode(int8(b.next()))))
	}
	if has&2 != 0 {
		size = int(int16(b.u16()))
		opts = append(opts, packetshader.WithPacketSize(size))
	}
	if has&4 != 0 {
		var g float64
		if s := int(b.next()); s < len(offeredSpecials) {
			g = offeredSpecials[s]
		} else {
			g = math.Float64frombits(b.u64())
		}
		opts = append(opts, packetshader.WithOfferedGbps(g))
	}
	if has&8 != 0 {
		opts = append(opts, packetshader.WithStreams(int(int8(b.next()))))
	}
	if has&16 != 0 {
		opts = append(opts, packetshader.WithChunkCap(int(int16(b.u16()))))
	}
	if has&32 != 0 {
		opts = append(opts, packetshader.WithGatherMax(int(int8(b.next()))))
	}
	if has&64 != 0 {
		opts = append(opts, packetshader.WithFIBUpdate(packetshader.FIBUpdateMode(int8(b.next()))))
	}
	if has&128 != 0 {
		plan := faults.NewPlan()
		for n := b.next() % 4; n > 0; n-- {
			plan.Add(faults.Event{
				Kind: faults.Kind(b.next() % 8), // 7 is no kind
				Port: int(int8(b.next())),
				Node: int(int8(b.next())),
				At:   sim.Duration(b.u16()) * sim.Nanosecond,
				Dur:  sim.Duration(b.u16()) * sim.Nanosecond,
				Div:  int(int8(b.next())),
			})
		}
		opts = append(opts, packetshader.WithFaults(plan))
	}
	if flags&1 != 0 {
		opts = append(opts, packetshader.WithOpportunisticOffload())
	}
	if flags&2 != 0 {
		opts = append(opts, packetshader.WithoutPipelining())
	}
	return app, size, opts
}

// FuzzFacadeOptions holds the facade's contract: whatever options a
// caller passes, a constructor either returns an error or an Instance
// that runs 50 µs of virtual time and closes without a panic (which
// includes the packet ledger's). Each input decodes to an application
// and an option combination (decodeOptions); the checked-in corpus in
// testdata/fuzz/FuzzFacadeOptions covers each application with no
// option, every option on its own, and the values validate rejects.
func FuzzFacadeOptions(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		app, size, opts := decodeOptions(data)
		var inst *packetshader.Instance
		var err error
		switch app {
		case 0:
			inst, err = packetshader.IPv4(64, 1, opts...)
		case 1:
			inst, err = packetshader.IPv6(64, 1, opts...)
		case 2:
			inst, err = packetshader.IPsec(1, opts...)
		default:
			sw := openflow.NewSwitch(64)
			sw.Wildcard.Insert(openflow.Rule{Wild: openflow.WAll, Priority: 1,
				Action: openflow.Action{Type: openflow.ActionOutput, Port: 3}})
			inst, err = packetshader.OpenFlowSwitch(sw, &pktgen.UDP4Source{Size: size, Seed: 1}, opts...)
		}
		if err != nil {
			return
		}
		defer inst.Close()
		inst.Run(50 * packetshader.Microsecond)
	})
}
