package openflow

import (
	"encoding/binary"
	"errors"

	"packetshader/internal/packet"
)

// ModType enumerates the OpenFlow 0.8.9 header-modify actions.
type ModType uint8

// Modify-action types (OFPAT_* of the 0.8.9 spec).
const (
	ModSetDlSrc ModType = iota
	ModSetDlDst
	ModSetNwSrc
	ModSetNwDst
	ModSetTpSrc
	ModSetTpDst
	ModSetVLAN
	ModStripVLAN
)

// Mod is one header rewrite.
type Mod struct {
	Type ModType
	MAC  packet.MAC      // ModSetDl*
	IP   packet.IPv4Addr // ModSetNw*
	Port uint16          // ModSetTp*
	VLAN uint16          // ModSetVLAN (VID, 12 bits)
}

// ErrNotApplicable reports a mod that does not fit the frame (e.g. an
// IP rewrite on a non-IP packet).
var ErrNotApplicable = errors.New("openflow: action not applicable to packet")

// ApplyMods rewrites the frame in place (VLAN push/strip change the
// length; the returned slice is the new frame, re-sliced from the same
// backing storage, which must have room for a pushed tag). IPv4 header
// checksums are fixed up incrementally.
func ApplyMods(frame []byte, mods []Mod) ([]byte, error) {
	for _, m := range mods {
		var err error
		frame, err = applyMod(frame, m)
		if err != nil {
			return frame, err
		}
	}
	return frame, nil
}

func applyMod(frame []byte, m Mod) ([]byte, error) {
	if len(frame) < packet.EthHdrLen {
		return frame, ErrNotApplicable
	}
	switch m.Type {
	case ModSetDlSrc:
		copy(frame[6:12], m.MAC[:])
		return frame, nil
	case ModSetDlDst:
		copy(frame[0:6], m.MAC[:])
		return frame, nil
	case ModSetVLAN:
		return setVLAN(frame, m.VLAN&0x0fff)
	case ModStripVLAN:
		return stripVLAN(frame)
	}

	// IP/transport rewrites need the IPv4 header offset (after any tag).
	ipOff := packet.EthHdrLen
	et := binary.BigEndian.Uint16(frame[12:14])
	if et == packet.EtherTypeVLAN {
		if len(frame) < packet.EthHdrLen+packet.VLANTagLen {
			return frame, ErrNotApplicable
		}
		et = binary.BigEndian.Uint16(frame[16:18])
		ipOff += packet.VLANTagLen
	}
	if et != packet.EtherTypeIPv4 || len(frame) < ipOff+packet.IPv4HdrLen {
		return frame, ErrNotApplicable
	}
	hdr := frame[ipOff:]
	hdrLen := int(hdr[0]&0x0f) * 4
	if hdrLen < packet.IPv4HdrLen || len(hdr) < hdrLen {
		return frame, ErrNotApplicable
	}

	switch m.Type {
	case ModSetNwSrc, ModSetNwDst:
		off := 12
		if m.Type == ModSetNwDst {
			off = 16
		}
		old := binary.BigEndian.Uint32(hdr[off:])
		binary.BigEndian.PutUint32(hdr[off:], uint32(m.IP))
		cs := binary.BigEndian.Uint16(hdr[10:12])
		binary.BigEndian.PutUint16(hdr[10:12],
			packet.ChecksumUpdate32(cs, old, uint32(m.IP)))
		return frame, nil
	case ModSetTpSrc, ModSetTpDst:
		proto := hdr[9]
		if proto != packet.ProtoUDP && proto != packet.ProtoTCP {
			return frame, ErrNotApplicable
		}
		l4 := hdr[hdrLen:]
		if len(l4) < 4 {
			return frame, ErrNotApplicable
		}
		off := 0
		if m.Type == ModSetTpDst {
			off = 2
		}
		binary.BigEndian.PutUint16(l4[off:], m.Port)
		// UDP checksum 0 = unchecked (our generator's convention); TCP
		// checksums are not recomputed by the data path (the paper's
		// switch does not terminate TCP).
		return frame, nil
	}
	return frame, ErrNotApplicable
}

// setVLAN sets the VID of an existing tag or pushes a new 802.1Q tag.
// A tagged frame too short to hold its tag is not rewritten.
func setVLAN(frame []byte, vid uint16) ([]byte, error) {
	if binary.BigEndian.Uint16(frame[12:14]) == packet.EtherTypeVLAN {
		if len(frame) < packet.EthHdrLen+packet.VLANTagLen {
			return frame, ErrNotApplicable
		}
		old := binary.BigEndian.Uint16(frame[14:16])
		binary.BigEndian.PutUint16(frame[14:16], old&0xf000|vid)
		return frame, nil
	}
	if cap(frame) < len(frame)+packet.VLANTagLen {
		return frame, errors.New("openflow: no room to push VLAN tag")
	}
	out := frame[:len(frame)+packet.VLANTagLen]
	copy(out[packet.EthHdrLen+packet.VLANTagLen:], frame[packet.EthHdrLen:])
	inner := binary.BigEndian.Uint16(out[12:14])
	binary.BigEndian.PutUint16(out[12:14], packet.EtherTypeVLAN)
	binary.BigEndian.PutUint16(out[14:16], vid)
	binary.BigEndian.PutUint16(out[16:18], inner)
	return out, nil
}

// stripVLAN removes the 802.1Q tag if present (no-op otherwise, per the
// spec).
func stripVLAN(frame []byte) ([]byte, error) {
	if binary.BigEndian.Uint16(frame[12:14]) != packet.EtherTypeVLAN {
		return frame, nil
	}
	if len(frame) < packet.EthHdrLen+packet.VLANTagLen {
		return frame, ErrNotApplicable
	}
	inner := binary.BigEndian.Uint16(frame[16:18])
	copy(frame[packet.EthHdrLen:], frame[packet.EthHdrLen+packet.VLANTagLen:])
	binary.BigEndian.PutUint16(frame[12:14], inner)
	return frame[:len(frame)-packet.VLANTagLen], nil
}
