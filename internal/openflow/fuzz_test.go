package openflow

import (
	"encoding/binary"
	"testing"

	"packetshader/internal/packet"
)

// modLen is the bytes FuzzApplyMods reads per mod: type, MAC, IPv4
// address, and one 16-bit field used as both port and VID.
const modLen = 1 + 6 + 4 + 2

// FuzzApplyMods applies up to four mods, drawn from fuzzed bytes (a type
// byte past ModStripVLAN is an unknown type), to an arbitrary frame with
// 0-255 bytes of spare capacity. It must never panic or write past the
// longest frame a mod returned; a frame it accepts must
// lie in the frame's own backing array, from its first byte; and
// decoding the result and extracting its flow key must not panic either.
// The checked-in seeds cover a 14-byte tagged frame at capacity 14, 15
// and 64 (set-VLAN once reached past the frame) and full UDP frames
// through every mod type, tagged and untagged.
func FuzzApplyMods(f *testing.F) {
	var buf [128]byte
	udp := packet.BuildUDP4(buf[:], 64, packet.MAC{1}, packet.MAC{2}, 0x0A000001, 0x0B000002, 1000, 2000)
	var mods []byte
	for typ := range ModStripVLAN + 2 {
		m := make([]byte, modLen)
		m[0] = byte(typ)
		mods = append(mods, m...)
	}
	f.Add(udp, uint8(4), mods)
	f.Fuzz(func(t *testing.T, data []byte, room uint8, modBytes []byte) {
		const guard = 0xEE
		backing := make([]byte, len(data)+int(room))
		for i := range backing {
			backing[i] = guard
		}
		frame := backing[:copy(backing, data)]
		var ms []Mod
		for ; len(modBytes) >= modLen && len(ms) < 4; modBytes = modBytes[modLen:] {
			field := binary.BigEndian.Uint16(modBytes[11:13])
			ms = append(ms, Mod{
				Type: ModType(modBytes[0] % byte(ModStripVLAN+2)),
				MAC:  packet.MAC(modBytes[1:7]),
				IP:   packet.IPv4Addr(binary.BigEndian.Uint32(modBytes[7:11])),
				Port: field,
				VLAN: field,
			})
		}
		// One mod per call, as ApplyMods runs its list, to know the
		// longest frame a mod returned.
		out, longest := frame, len(frame)
		var err error
		for _, m := range ms {
			if out, err = ApplyMods(out, []Mod{m}); err != nil {
				break
			}
			longest = max(longest, len(out))
		}
		for i := longest; i < len(backing); i++ {
			if backing[i] != guard {
				t.Fatalf("%d-byte frame, cap %d, %d mods (err %v): byte %d past the frame written",
					len(frame), cap(frame), len(ms), err, i)
			}
		}
		if err != nil {
			return
		}
		if cap(out) != cap(frame) || (cap(frame) > 0 && &out[:1][0] != &frame[:1][0]) {
			t.Fatalf("%d-byte frame, cap %d, %d mods: result (len %d, cap %d) is not the frame's backing array",
				len(frame), cap(frame), len(ms), len(out), cap(out))
		}
		var d packet.Decoder
		_ = d.Decode(out) // any error: ExtractKey still reads what was decoded
		_ = ExtractKey(&d, 1)
	})
}
