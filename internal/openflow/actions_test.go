package openflow

import (
	"encoding/binary"
	"testing"

	"packetshader/internal/packet"
)

func buildFrame(t *testing.T) []byte {
	t.Helper()
	buf := make([]byte, 2048)
	return packet.BuildUDP4(buf, 100,
		packet.MAC{1, 1, 1, 1, 1, 1}, packet.MAC{2, 2, 2, 2, 2, 2},
		packet.IPv4Addr(0x0A000001), packet.IPv4Addr(0x0B000002), 1000, 2000)
}

func decode(t *testing.T, frame []byte) *packet.Decoder {
	t.Helper()
	var d packet.Decoder
	if err := d.Decode(frame); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &d
}

func TestSetDlAddrs(t *testing.T) {
	frame := buildFrame(t)
	newSrc := packet.MAC{9, 9, 9, 9, 9, 1}
	newDst := packet.MAC{9, 9, 9, 9, 9, 2}
	out, err := ApplyMods(frame, []Mod{
		{Type: ModSetDlSrc, MAC: newSrc},
		{Type: ModSetDlDst, MAC: newDst},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := decode(t, out)
	if d.Eth.Src != newSrc || d.Eth.Dst != newDst {
		t.Errorf("MACs = %v/%v", d.Eth.Src, d.Eth.Dst)
	}
}

func TestSetNwAddrsFixChecksum(t *testing.T) {
	frame := buildFrame(t)
	out, err := ApplyMods(frame, []Mod{
		{Type: ModSetNwSrc, IP: packet.IPv4Addr(0xC0A80001)},
		{Type: ModSetNwDst, IP: packet.IPv4Addr(0xC0A80002)},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := decode(t, out)
	if d.IPv4.Src != 0xC0A80001 || d.IPv4.Dst != 0xC0A80002 {
		t.Errorf("IPs = %v/%v", d.IPv4.Src, d.IPv4.Dst)
	}
	if !packet.VerifyIPv4Checksum(out[packet.EthHdrLen:]) {
		t.Error("checksum not fixed after NW rewrite")
	}
}

func TestSetTpPorts(t *testing.T) {
	frame := buildFrame(t)
	out, err := ApplyMods(frame, []Mod{
		{Type: ModSetTpSrc, Port: 5555},
		{Type: ModSetTpDst, Port: 6666},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := decode(t, out)
	if d.UDP.SrcPort != 5555 || d.UDP.DstPort != 6666 {
		t.Errorf("ports = %d/%d", d.UDP.SrcPort, d.UDP.DstPort)
	}
}

func TestVLANPushSetStrip(t *testing.T) {
	frame := buildFrame(t)
	origLen := len(frame)
	// Push.
	out, err := ApplyMods(frame, []Mod{{Type: ModSetVLAN, VLAN: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != origLen+packet.VLANTagLen {
		t.Fatalf("push: len = %d", len(out))
	}
	d := decode(t, out)
	if d.VLANID != 100 || !d.Has(packet.LayerIPv4) || !d.Has(packet.LayerUDP) {
		t.Fatalf("pushed frame: vlan=%d ipv4=%v udp=%v", d.VLANID, d.Has(packet.LayerIPv4), d.Has(packet.LayerUDP))
	}
	// Set VID on the existing tag: length unchanged.
	out, err = ApplyMods(out, []Mod{{Type: ModSetVLAN, VLAN: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != origLen+packet.VLANTagLen {
		t.Fatal("re-tag changed length")
	}
	if d := decode(t, out); d.VLANID != 200 {
		t.Errorf("vid = %d", d.VLANID)
	}
	// Strip restores the original frame exactly.
	out, err = ApplyMods(out, []Mod{{Type: ModStripVLAN}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != origLen {
		t.Fatalf("strip: len = %d want %d", len(out), origLen)
	}
	d2 := decode(t, out)
	if d2.VLANID != packet.VLANNone || d2.UDP.DstPort != 2000 {
		t.Error("stripped frame corrupted")
	}
}

func TestStripVLANNoTagIsNoop(t *testing.T) {
	frame := buildFrame(t)
	out, err := ApplyMods(frame, []Mod{{Type: ModStripVLAN}})
	if err != nil || len(out) != len(frame) {
		t.Errorf("strip on untagged: err=%v len=%d", err, len(out))
	}
}

func TestNwRewriteThroughVLANTag(t *testing.T) {
	frame := buildFrame(t)
	out, _ := ApplyMods(frame, []Mod{{Type: ModSetVLAN, VLAN: 7}})
	out, err := ApplyMods(out, []Mod{{Type: ModSetNwDst, IP: 0x01020304}})
	if err != nil {
		t.Fatal(err)
	}
	d := decode(t, out)
	if d.IPv4.Dst != 0x01020304 {
		t.Errorf("dst = %v", d.IPv4.Dst)
	}
	ipOff := packet.EthHdrLen + packet.VLANTagLen
	if !packet.VerifyIPv4Checksum(out[ipOff:]) {
		t.Error("checksum wrong after rewrite under VLAN")
	}
}

func TestModsNotApplicable(t *testing.T) {
	arp := make([]byte, 64)
	binary.BigEndian.PutUint16(arp[12:14], packet.EtherTypeARP)
	if _, err := ApplyMods(arp, []Mod{{Type: ModSetNwSrc, IP: 1}}); err != ErrNotApplicable {
		t.Errorf("NW rewrite of ARP: err = %v", err)
	}
	short := make([]byte, 8)
	if _, err := ApplyMods(short, []Mod{{Type: ModSetDlSrc}}); err != ErrNotApplicable {
		t.Errorf("mod on runt frame: err = %v", err)
	}
}

func TestChecksumUpdate32MatchesRecompute(t *testing.T) {
	frame := buildFrame(t)
	hdr := frame[packet.EthHdrLen : packet.EthHdrLen+packet.IPv4HdrLen]
	for _, newIP := range []uint32{0, 0xFFFFFFFF, 0x01020304, 0xC0A80101} {
		cp := make([]byte, len(hdr))
		copy(cp, hdr)
		old := binary.BigEndian.Uint32(cp[16:20])
		cs := binary.BigEndian.Uint16(cp[10:12])
		inc := packet.ChecksumUpdate32(cs, old, newIP)
		binary.BigEndian.PutUint32(cp[16:20], newIP)
		binary.BigEndian.PutUint16(cp[10:12], 0)
		full := packet.Checksum(cp)
		if inc != full {
			t.Errorf("newIP %#x: incremental %#04x vs full %#04x", newIP, inc, full)
		}
	}
}
