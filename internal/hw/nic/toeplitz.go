// Package nic models the Intel 82599 10GbE ports of the testbed: RX
// descriptor rings fed by a fluid arrival process (so multi-10G rates
// simulate cheaply), Receive-Side Scaling with a real Toeplitz hash,
// interrupt/poll switching with moderation, and TX serialization at line
// rate including the 24B Ethernet overhead.
package nic

import (
	"bytes"
	"encoding/binary"
)

// DefaultRSSKey is the 40-byte Toeplitz key from Microsoft's RSS
// specification (the key the ixgbe driver programs by default).
var DefaultRSSKey = [40]byte{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// ToeplitzHash computes the RSS hash of input under key (input is the
// concatenated 5-tuple fields in network order, per the RSS spec). For
// each set bit i of the input (MSB first), the 32-bit key window
// starting at bit i is XORed into the result.
//
// This is the bit-serial reference implementation; the per-packet path
// goes through the precomputed lookup tables of ToeplitzLUT (identical
// hashes, enforced by a differential test).
func ToeplitzHash(key []byte, input []byte) uint32 {
	keyBit := func(i int) uint64 {
		if i >= len(key)*8 {
			return 0
		}
		return uint64(key[i/8]>>(7-i%8)) & 1
	}
	// window holds key bits [k, k+64) while consuming input bit k.
	var window uint64
	for i := 0; i < 64; i++ {
		window = window<<1 | keyBit(i)
	}
	var result uint32
	k := 0
	for _, b := range input {
		for bit := 7; bit >= 0; bit-- {
			if b&(1<<bit) != 0 {
				result ^= uint32(window >> 32)
			}
			window = window<<1 | keyBit(k+64)
			k++
		}
	}
	return result
}

// ToeplitzLUT is a table-driven Toeplitz hasher for a fixed key and
// input length: the hash is GF(2)-linear in the input bits, so the
// contribution of byte position p holding value v can be precomputed
// once into lut[p][v], turning the per-packet bit-serial loop into one
// table lookup and XOR per input byte.
type ToeplitzLUT struct {
	lut [][256]uint32
}

// NewToeplitzLUT precomputes the per-byte-position tables for hashing
// inputLen-byte inputs under key.
func NewToeplitzLUT(key []byte, inputLen int) *ToeplitzLUT {
	keyBit := func(i int) uint32 {
		if i >= len(key)*8 {
			return 0
		}
		return uint32(key[i/8]>>(7-i%8)) & 1
	}
	// window(k) = key bits [k, k+32), the value XORed in when input bit
	// k (MSB-first across the whole input) is set.
	window := func(k int) uint32 {
		var w uint32
		for i := 0; i < 32; i++ {
			w = w<<1 | keyBit(k+i)
		}
		return w
	}
	t := &ToeplitzLUT{lut: make([][256]uint32, inputLen)}
	for p := 0; p < inputLen; p++ {
		var bitContrib [8]uint32
		for bit := 0; bit < 8; bit++ {
			bitContrib[bit] = window(p*8 + bit)
		}
		for v := 0; v < 256; v++ {
			var h uint32
			for bit := 0; bit < 8; bit++ {
				if v&(0x80>>bit) != 0 {
					h ^= bitContrib[bit]
				}
			}
			t.lut[p][v] = h
		}
	}
	return t
}

// Hash computes the Toeplitz hash of input (len(input) must not exceed
// the table's input length).
func (t *ToeplitzLUT) Hash(input []byte) uint32 {
	var h uint32
	for p, b := range input {
		h ^= t.lut[p][b]
	}
	return h
}

// defaultRSSLUT serves the default key: built once at init, read-only
// afterwards. 12 positions x 256 entries x 4B = 12 KiB, cache-resident.
var defaultRSSLUT = NewToeplitzLUT(DefaultRSSKey[:], 12)

// RSSHashIPv4 computes the RSS hash over the IPv4/UDP-or-TCP 5-tuple
// (12-byte input: src IP, dst IP, src port, dst port) under key: the
// default key through RSSHashIPv4Default, others bit-serially.
func RSSHashIPv4(key []byte, srcIP, dstIP uint32, srcPort, dstPort uint16) uint32 {
	if bytes.Equal(key, DefaultRSSKey[:]) {
		return RSSHashIPv4Default(srcIP, dstIP, srcPort, dstPort)
	}
	var in [12]byte
	binary.BigEndian.PutUint32(in[0:4], srcIP)
	binary.BigEndian.PutUint32(in[4:8], dstIP)
	binary.BigEndian.PutUint16(in[8:10], srcPort)
	binary.BigEndian.PutUint16(in[10:12], dstPort)
	return ToeplitzHash(key, in[:])
}

// RSSHashIPv4Default is RSSHashIPv4 under DefaultRSSKey, by table.
func RSSHashIPv4Default(srcIP, dstIP uint32, srcPort, dstPort uint16) uint32 {
	l := defaultRSSLUT.lut
	return l[0][byte(srcIP>>24)] ^ l[1][byte(srcIP>>16)] ^
		l[2][byte(srcIP>>8)] ^ l[3][byte(srcIP)] ^
		l[4][byte(dstIP>>24)] ^ l[5][byte(dstIP>>16)] ^
		l[6][byte(dstIP>>8)] ^ l[7][byte(dstIP)] ^
		l[8][byte(srcPort>>8)] ^ l[9][byte(srcPort)] ^
		l[10][byte(dstPort>>8)] ^ l[11][byte(dstPort)]
}
