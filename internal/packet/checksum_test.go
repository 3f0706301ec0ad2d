package packet

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"unsafe"
)

// sumWords16 is the RFC 1071 sum one 16-bit word per step, the
// reference sumWords must fold equal to. Its uint32 accumulator is
// exact for inputs up to 128 KiB, past any IP datagram.
func sumWords16(b []byte, acc uint32) uint32 {
	for len(b) >= 2 {
		acc += uint32(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		acc += uint32(b[0]) << 8
	}
	return acc
}

// maxChecksumInput bounds the inputs compared with sumWords16.
const maxChecksumInput = 65535

// checkChecksum compares Checksum and TransportChecksumIPv4 over b,
// placed off%8 bytes past an 8-byte boundary, with the 16-bit
// reference.
func checkChecksum(t *testing.T, b []byte, off uint8, src, dst uint32, proto uint8) {
	t.Helper()
	if len(b) > maxChecksumInput {
		b = b[:maxChecksumInput]
	}
	raw := make([]byte, len(b)+16)
	start := int(-uintptr(unsafe.Pointer(&raw[0]))&7) + int(off%8)
	in := raw[start : start+len(b)]
	copy(in, b)
	if got, want := Checksum(in), finishChecksum(sumWords16(in, 0)); got != want {
		t.Fatalf("Checksum of %d bytes at offset %d = %#04x, differs from the 16-bit reference %#04x", len(in), off%8, got, want)
	}
	s, d := IPv4Addr(src), IPv4Addr(dst)
	seed := PseudoHeaderChecksumIPv4(s, d, proto, len(in))
	if got, want := TransportChecksumIPv4(s, d, proto, in), finishChecksum(sumWords16(in, seed)); got != want {
		t.Fatalf("TransportChecksumIPv4 of %d bytes at offset %d = %#04x, differs from the 16-bit reference %#04x", len(in), off%8, got, want)
	}
}

// TestChecksumMatchesReference: every length up to 64 bytes at every
// offset, in random bytes and in the all-zero and all-ones runs that
// put the sum at its fold and carry boundaries, sums as the 16-bit
// loop does.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 64; n++ {
		for _, fill := range []int{-1, 0x00, 0xff} {
			b := make([]byte, n)
			for i := range b {
				if fill < 0 {
					b[i] = byte(rng.Intn(256))
				} else {
					b[i] = byte(fill)
				}
			}
			for off := uint8(0); off < 8; off++ {
				checkChecksum(t, b, off, rng.Uint32(), rng.Uint32(), ProtoUDP)
				checkChecksum(t, b, off, 0xffffffff, 0xffffffff, 0xff)
				checkChecksum(t, b, off, 0, 0, 0)
			}
		}
	}
}

// FuzzChecksum holds Checksum and TransportChecksumIPv4 to the 16-bit
// reference on any input, offset and pseudo-header. The seeds cover
// odd, short and misaligned inputs with a nonzero seed, and runs of
// ones long enough that dropping a carry between 64-bit words moves
// the sum.
func FuzzChecksum(f *testing.F) {
	ones := make([]byte, 64)
	for i := range ones {
		ones[i] = 0xff
	}
	hdr := BuildUDP4(make([]byte, 64), 64, MAC{2}, MAC{4}, 0xc0a80001, 0x0a000001, 53, 1024)
	f.Add([]byte{}, uint8(0), uint32(0), uint32(0), uint8(0))
	f.Add([]byte{0xab}, uint8(3), uint32(0xc0a80001), uint32(0xc0a80002), ProtoUDP)
	f.Add([]byte{0x04, 0xd2, 0x00, 0x35, 0x00, 0x0a, 0x00, 0x00, 0xde}, uint8(1), uint32(0xc0a80001), uint32(0xc0a80002), ProtoUDP)
	f.Add(hdr[EthHdrLen:EthHdrLen+IPv4HdrLen], uint8(5), uint32(0), uint32(0), uint8(0))
	f.Add(ones, uint8(0), uint32(0xffffffff), uint32(0xffffffff), ProtoTCP)
	f.Add(ones[:23], uint8(7), uint32(0xfffeffff), uint32(0x0001ffff), ProtoUDP)
	f.Fuzz(checkChecksum)
}
