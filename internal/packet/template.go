package packet

import "encoding/binary"

// Frame templates: the traffic generators synthesize millions of frames
// per simulated second that differ only in addresses and ports, so
// rebuilding every header (and summing the IPv4 checksum) per packet is
// pure per-packet overhead — the same overhead story the paper's §4
// batching removes from the real engine. A template prebuilds the whole
// frame once per (size, MAC pair); per packet the generator copies it
// and patches the four variable fields, fixing the IPv4 header checksum
// incrementally: the addresses replace zero words, so their words add
// onto the template's sum (RFC 1624 with every old word zero). The
// result is byte-identical to a fresh BuildUDP4/BuildUDP6 (enforced by
// differential tests): the incremental update and the full sum compute
// the same ones-complement value, and both fold into the same canonical
// representative because neither sum is ever the all-zero word (the
// header's version byte is never zero).

// Patch offsets within a UDP4 template frame (Ethernet at 0, IPv4 at
// EthHdrLen, UDP at EthHdrLen+IPv4HdrLen).
const (
	udp4CsumOff    = EthHdrLen + 10
	udp4SrcOff     = EthHdrLen + 12
	udp4DstOff     = EthHdrLen + 16
	udp4SrcPortOff = EthHdrLen + IPv4HdrLen
	udp4DstPortOff = EthHdrLen + IPv4HdrLen + 2
)

// UDP4Template is a prebuilt Ethernet/IPv4/UDP frame with zeroed
// addresses and ports, rendered per packet by copy + patch.
type UDP4Template struct {
	frame []byte
	// cs0 is the baseline IPv4 header checksum (addresses zero), the
	// starting point of the per-packet fixup.
	cs0 uint16
}

// NewUDP4Template prebuilds the template for size-byte frames (size is
// clamped exactly as BuildUDP4 clamps it).
func NewUDP4Template(size int, srcMAC, dstMAC MAC) *UDP4Template {
	if size < EthHdrLen+IPv4HdrLen+UDPHdrLen {
		size = EthHdrLen + IPv4HdrLen + UDPHdrLen
	}
	f := BuildUDP4(make([]byte, size), size, srcMAC, dstMAC, 0, 0, 0, 0)
	return &UDP4Template{frame: f, cs0: binary.BigEndian.Uint16(f[udp4CsumOff:])}
}

// Size returns the rendered frame length.
func (t *UDP4Template) Size() int { return len(t.frame) }

// Render writes the template into dst (capacity must be ≥ Size) with
// the given addresses and ports patched in and the IPv4 checksum fixed
// up in one fold. It returns the frame slice, byte-identical to
// BuildUDP4(dst, size, ...) with the same parameters.
func (t *UDP4Template) Render(dst []byte, src, dstIP IPv4Addr, srcPort, dstPort uint16) []byte {
	b := dst[:len(t.frame)]
	copy(b, t.frame)
	binary.BigEndian.PutUint32(b[udp4SrcOff:], uint32(src))
	binary.BigEndian.PutUint32(b[udp4DstOff:], uint32(dstIP))
	binary.BigEndian.PutUint16(b[udp4SrcPortOff:], srcPort)
	binary.BigEndian.PutUint16(b[udp4DstPortOff:], dstPort)
	// The addresses replace zero words: their four words add onto the
	// baseline sum ^cs0, which is never zero, and fold once.
	sum := uint32(^t.cs0) + uint32(src>>16) + uint32(src&0xffff) +
		uint32(dstIP>>16) + uint32(dstIP&0xffff)
	binary.BigEndian.PutUint16(b[udp4CsumOff:], finishChecksum(sum))
	return b
}

// Patch offsets within a UDP6 template frame (IPv6 at EthHdrLen, UDP at
// EthHdrLen+IPv6HdrLen; no checksums to fix: BuildUDP6 leaves the UDP
// checksum zero and IPv6 has no header checksum).
const (
	udp6SrcOff     = EthHdrLen + 8
	udp6DstOff     = EthHdrLen + 24
	udp6SrcPortOff = EthHdrLen + IPv6HdrLen
	udp6DstPortOff = EthHdrLen + IPv6HdrLen + 2
)

// UDP6Template is the IPv6 counterpart of UDP4Template.
type UDP6Template struct {
	frame []byte
}

// NewUDP6Template prebuilds the template for size-byte frames.
func NewUDP6Template(size int, srcMAC, dstMAC MAC) *UDP6Template {
	if size < EthHdrLen+IPv6HdrLen+UDPHdrLen {
		size = EthHdrLen + IPv6HdrLen + UDPHdrLen
	}
	f := BuildUDP6(make([]byte, size), size, srcMAC, dstMAC, IPv6Addr{}, IPv6Addr{}, 0, 0)
	return &UDP6Template{frame: f}
}

// Size returns the rendered frame length.
func (t *UDP6Template) Size() int { return len(t.frame) }

// Render writes the template into dst with addresses and ports patched,
// byte-identical to BuildUDP6 with the same parameters.
func (t *UDP6Template) Render(dst []byte, src, dstIP IPv6Addr, srcPort, dstPort uint16) []byte {
	b := dst[:len(t.frame)]
	copy(b, t.frame)
	copy(b[udp6SrcOff:udp6SrcOff+16], src[:])
	copy(b[udp6DstOff:udp6DstOff+16], dstIP[:])
	binary.BigEndian.PutUint16(b[udp6SrcPortOff:], srcPort)
	binary.BigEndian.PutUint16(b[udp6DstPortOff:], dstPort)
	return b
}
