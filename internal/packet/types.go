// Package packet implements wire-format parsing and serialization for the
// protocols PacketShader processes: Ethernet (with 802.1Q), IPv4, IPv6,
// UDP, TCP, and ESP framing. Decoding fills caller-owned header structs
// (in the style of gopacket's DecodingLayerParser) so the router's fast
// path performs no per-packet allocation.
package packet

import (
	"encoding/binary"
	"fmt"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4Addr is an IPv4 address in host byte order (so that prefix
// arithmetic is plain integer arithmetic).
type IPv4Addr uint32

func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Bytes returns the network-byte-order representation.
func (a IPv4Addr) Bytes() [4]byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(a))
	return b
}

// IPv4AddrFrom parses 4 network-order bytes.
func IPv4AddrFrom(b []byte) IPv4Addr {
	return IPv4Addr(binary.BigEndian.Uint32(b))
}

// IPv6Addr is a 128-bit IPv6 address in network byte order.
type IPv6Addr [16]byte

func (a IPv6Addr) String() string {
	return fmt.Sprintf("%x:%x:%x:%x:%x:%x:%x:%x",
		binary.BigEndian.Uint16(a[0:]), binary.BigEndian.Uint16(a[2:]),
		binary.BigEndian.Uint16(a[4:]), binary.BigEndian.Uint16(a[6:]),
		binary.BigEndian.Uint16(a[8:]), binary.BigEndian.Uint16(a[10:]),
		binary.BigEndian.Uint16(a[12:]), binary.BigEndian.Uint16(a[14:]))
}

// Hi and Lo return the high/low 64 bits (host order) for prefix math.
func (a IPv6Addr) Hi() uint64 { return binary.BigEndian.Uint64(a[0:8]) }
func (a IPv6Addr) Lo() uint64 { return binary.BigEndian.Uint64(a[8:16]) }

// IPv6AddrFromParts builds an address from high/low 64-bit halves.
func IPv6AddrFromParts(hi, lo uint64) IPv6Addr {
	var a IPv6Addr
	binary.BigEndian.PutUint64(a[0:8], hi)
	binary.BigEndian.PutUint64(a[8:16], lo)
	return a
}

// EtherTypes.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeIPv6 uint16 = 0x86DD
	EtherTypeVLAN uint16 = 0x8100
	EtherTypeARP  uint16 = 0x0806
)

// IP protocol numbers.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
	ProtoESP uint8 = 50
)

// Header sizes.
const (
	EthHdrLen  = 14
	VLANTagLen = 4
	IPv4HdrLen = 20 // without options
	IPv6HdrLen = 40
	UDPHdrLen  = 8
	TCPHdrLen  = 20 // without options
)
