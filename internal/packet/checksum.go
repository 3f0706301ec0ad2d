package packet

import (
	"encoding/binary"
	"math/bits"
)

// Checksum computes the RFC 1071 Internet checksum over b.
func Checksum(b []byte) uint16 {
	return finishChecksum(sumWords(b, 0))
}

// sumWords adds the 16-bit big-endian words of b to acc (odd trailing
// byte padded with zero, per RFC 1071), eight bytes per step. By RFC
// 1071 §2 the ones-complement sum is independent of byte order and may
// be taken over wider words in parallel: a big-endian 64-bit load is
// four of the 16-bit words, weighted by powers of 2^16, each ≡ 1 modulo
// 0xffff, and the end-around carry keeps the running sum's class
// modulo 0xffff. A sum that is not zero never folds to zero, so the
// value returned folds to the 16-bit loop's for every input.
func sumWords(b []byte, acc uint32) uint32 {
	s, c := uint64(acc), uint64(0)
	for len(b) >= 8 {
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b), c)
		b = b[8:]
	}
	// The tail is under eight bytes: its words fit a uint64 unsummed.
	var t uint64
	if len(b) >= 4 {
		t = uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		t += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		t += uint64(b[0]) << 8
	}
	s, c = bits.Add64(s, t, c)
	s += c // cannot carry again: a wrapped s is at most t
	hi, lo := uint32(s>>32), uint32(s)
	r, c32 := bits.Add32(hi, lo, 0)
	return r + c32
}

// finishChecksum folds sum to 16 bits and complements it. Two folds
// always suffice: the first leaves at most 0x1fffe, the second at most
// 0xffff, and a fold of a value that already fits changes nothing.
func finishChecksum(sum uint32) uint16 {
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	return ^uint16(sum)
}

// ChecksumUpdateTTLDecrement incrementally updates an IPv4 header
// checksum for a TTL decrement, per RFC 1624 (eqn. 3): the router's fast
// path must not recompute the full header sum for every packet.
// old16 is the big-endian 16-bit word containing {TTL, protocol} before
// the decrement.
func ChecksumUpdateTTLDecrement(oldSum uint16, old16 uint16) uint16 {
	new16 := old16 - 0x0100 // TTL is the high byte of the word
	// HC' = ~(~HC + ~m + m')
	sum := uint32(^oldSum) + uint32(^old16&0xffff) + uint32(new16)
	return finishChecksum(sum) // finish already complements
}

// ChecksumUpdate16 incrementally updates a checksum for one 16-bit word
// changing from old16 to new16 (RFC 1624 eqn. 3).
func ChecksumUpdate16(oldSum, old16, new16 uint16) uint16 {
	sum := uint32(^oldSum) + uint32(^old16&0xffff) + uint32(new16)
	return finishChecksum(sum)
}

// ChecksumUpdate32 incrementally updates a checksum for a 32-bit field
// (e.g. an IPv4 address) changing from old32 to new32.
func ChecksumUpdate32(oldSum uint16, old32, new32 uint32) uint16 {
	s := ChecksumUpdate16(oldSum, uint16(old32>>16), uint16(new32>>16))
	return ChecksumUpdate16(s, uint16(old32), uint16(new32))
}

// PseudoHeaderChecksumIPv4 computes the checksum seed of the IPv4
// pseudo-header used by UDP and TCP.
func PseudoHeaderChecksumIPv4(src, dst IPv4Addr, proto uint8, length int) uint32 {
	var acc uint32
	acc += uint32(src >> 16)
	acc += uint32(src & 0xffff)
	acc += uint32(dst >> 16)
	acc += uint32(dst & 0xffff)
	acc += uint32(proto)
	acc += uint32(length)
	return acc
}

// TransportChecksumIPv4 computes the UDP/TCP checksum over segment
// (headers+payload) with the IPv4 pseudo-header.
func TransportChecksumIPv4(src, dst IPv4Addr, proto uint8, segment []byte) uint16 {
	acc := PseudoHeaderChecksumIPv4(src, dst, proto, len(segment))
	return finishChecksum(sumWords(segment, acc))
}
