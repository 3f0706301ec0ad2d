package packet

import (
	"encoding/binary"
	"errors"
)

// Decoding errors.
var (
	ErrTruncated  = errors.New("packet: truncated")
	ErrBadVersion = errors.New("packet: bad IP version")
	ErrBadHdrLen  = errors.New("packet: bad header length")
)

// EthernetHdr is a decoded Ethernet header (VLAN tag, if any, is
// reported via the Decoder).
type EthernetHdr struct {
	Dst, Src  MAC
	EtherType uint16
}

// Decode parses an Ethernet header from b and returns the payload.
func (h *EthernetHdr) Decode(b []byte) ([]byte, error) {
	if len(b) < EthHdrLen {
		return nil, ErrTruncated
	}
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.EtherType = binary.BigEndian.Uint16(b[12:14])
	return b[EthHdrLen:], nil
}

// Encode writes the header into b (must be ≥ EthHdrLen).
func (h *EthernetHdr) Encode(b []byte) {
	copy(b[0:6], h.Dst[:])
	copy(b[6:12], h.Src[:])
	binary.BigEndian.PutUint16(b[12:14], h.EtherType)
}

// IPv4Hdr is a decoded IPv4 header (options preserved by length only).
type IPv4Hdr struct {
	IHL      uint8 // header length in 32-bit words
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src, Dst IPv4Addr
}

// Decode parses an IPv4 header and returns the L4 payload.
func (h *IPv4Hdr) Decode(b []byte) ([]byte, error) {
	if len(b) < IPv4HdrLen {
		return nil, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return nil, ErrBadVersion
	}
	h.IHL = b[0] & 0x0f
	hdrLen := int(h.IHL) * 4
	if hdrLen < IPv4HdrLen || len(b) < hdrLen {
		return nil, ErrBadHdrLen
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	h.Flags = uint8(ff >> 13)
	h.FragOff = ff & 0x1fff
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Checksum = binary.BigEndian.Uint16(b[10:12])
	h.Src = IPv4AddrFrom(b[12:16])
	h.Dst = IPv4AddrFrom(b[16:20])
	if int(h.TotalLen) < hdrLen {
		return nil, ErrBadHdrLen
	}
	end := int(h.TotalLen)
	if end > len(b) {
		end = len(b)
	}
	return b[hdrLen:end], nil
}

// VerifyChecksum reports whether the header checksum in b (an IPv4
// header of hdrLen bytes) is valid.
func VerifyIPv4Checksum(b []byte) bool {
	if len(b) < IPv4HdrLen {
		return false
	}
	hdrLen := int(b[0]&0x0f) * 4
	if hdrLen < IPv4HdrLen || hdrLen > len(b) {
		return false
	}
	return Checksum(b[:hdrLen]) == 0
}

// Encode writes a 20-byte (optionless) header into b and fills the
// checksum field.
func (h *IPv4Hdr) Encode(b []byte) {
	b[0] = 4<<4 | 5
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(h.Flags)<<13|h.FragOff)
	b[8] = h.TTL
	b[9] = h.Protocol
	b[10], b[11] = 0, 0
	copy(b[12:16], b4(h.Src))
	copy(b[16:20], b4(h.Dst))
	cs := Checksum(b[:IPv4HdrLen])
	binary.BigEndian.PutUint16(b[10:12], cs)
}

func b4(a IPv4Addr) []byte {
	v := a.Bytes()
	return v[:]
}

// IPv6Hdr is a decoded IPv6 fixed header.
type IPv6Hdr struct {
	TrafficClass uint8
	FlowLabel    uint32
	PayloadLen   uint16
	NextHeader   uint8
	HopLimit     uint8
	Src, Dst     IPv6Addr
}

// Decode parses an IPv6 header and returns the payload.
func (h *IPv6Hdr) Decode(b []byte) ([]byte, error) {
	if len(b) < IPv6HdrLen {
		return nil, ErrTruncated
	}
	if b[0]>>4 != 6 {
		return nil, ErrBadVersion
	}
	vtf := binary.BigEndian.Uint32(b[0:4])
	h.TrafficClass = uint8(vtf >> 20)
	h.FlowLabel = vtf & 0xfffff
	h.PayloadLen = binary.BigEndian.Uint16(b[4:6])
	h.NextHeader = b[6]
	h.HopLimit = b[7]
	copy(h.Src[:], b[8:24])
	copy(h.Dst[:], b[24:40])
	end := IPv6HdrLen + int(h.PayloadLen)
	if end > len(b) {
		end = len(b)
	}
	return b[IPv6HdrLen:end], nil
}

// Encode writes the 40-byte fixed header into b.
func (h *IPv6Hdr) Encode(b []byte) {
	vtf := uint32(6)<<28 | uint32(h.TrafficClass)<<20 | h.FlowLabel&0xfffff
	binary.BigEndian.PutUint32(b[0:4], vtf)
	binary.BigEndian.PutUint16(b[4:6], h.PayloadLen)
	b[6] = h.NextHeader
	b[7] = h.HopLimit
	copy(b[8:24], h.Src[:])
	copy(b[24:40], h.Dst[:])
}

// UDPHdr is a decoded UDP header.
type UDPHdr struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// Decode parses a UDP header and returns the payload.
func (h *UDPHdr) Decode(b []byte) ([]byte, error) {
	if len(b) < UDPHdrLen {
		return nil, ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Length = binary.BigEndian.Uint16(b[4:6])
	h.Checksum = binary.BigEndian.Uint16(b[6:8])
	if int(h.Length) < UDPHdrLen {
		return nil, ErrBadHdrLen
	}
	end := int(h.Length)
	if end > len(b) {
		end = len(b)
	}
	return b[UDPHdrLen:end], nil
}

// Encode writes the header into b (checksum left as set in h; 0 means
// "no checksum" which is legal for UDP over IPv4).
func (h *UDPHdr) Encode(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], h.Length)
	binary.BigEndian.PutUint16(b[6:8], h.Checksum)
}

// TCPHdr is a decoded TCP header (flags and ports only; the router never
// terminates TCP).
type TCPHdr struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOff          uint8 // words
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
}

// Decode parses a TCP header and returns the payload.
func (h *TCPHdr) Decode(b []byte) ([]byte, error) {
	if len(b) < TCPHdrLen {
		return nil, ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Ack = binary.BigEndian.Uint32(b[8:12])
	h.DataOff = b[12] >> 4
	hdrLen := int(h.DataOff) * 4
	if hdrLen < TCPHdrLen || hdrLen > len(b) {
		return nil, ErrBadHdrLen
	}
	h.Flags = b[13]
	h.Window = binary.BigEndian.Uint16(b[14:16])
	h.Checksum = binary.BigEndian.Uint16(b[16:18])
	h.Urgent = binary.BigEndian.Uint16(b[18:20])
	return b[hdrLen:], nil
}

// Encode writes a 20-byte (optionless) TCP header into b.
func (h *TCPHdr) Encode(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	b[12] = 5 << 4
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:16], h.Window)
	binary.BigEndian.PutUint16(b[16:18], h.Checksum)
	binary.BigEndian.PutUint16(b[18:20], h.Urgent)
}
