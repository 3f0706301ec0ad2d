package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// tagged returns a copy of frame with an 802.1Q tag for VLAN vid
// inserted behind the MAC addresses.
func tagged(frame []byte, vid uint16) []byte {
	out := make([]byte, len(frame)+VLANTagLen)
	copy(out, frame[:12])
	binary.BigEndian.PutUint16(out[12:14], EtherTypeVLAN)
	binary.BigEndian.PutUint16(out[14:16], vid)
	copy(out[16:], frame[12:])
	return out
}

func layerSet(ls ...Layer) uint8 {
	var m uint8
	for _, l := range ls {
		m |= 1 << l
	}
	return m
}

// decodeShape is one frame and what Decode must make of it: the error,
// the layers reported (on an error, those parsed before it) and, on a
// nil error, how many bytes are left in Payload.
type decodeShape struct {
	name    string
	frame   []byte
	err     error
	layers  uint8
	payload int
}

// decodeShapes is the corpus a two-decoder differential ran until
// there was one decoder: well-formed UDP at assorted sizes and the
// structured mutants of a 100 B UDP/IPv4 and a 100 B UDP/IPv6 frame,
// plus tagged, optioned and TCP frames. FuzzDecode's checked-in
// seeds (testdata/fuzz/FuzzDecode) are these frames under these names.
func decodeShapes() []decodeShape {
	var buf [2048]byte
	var shapes []decodeShape
	add := func(name string, frame []byte, err error, payload int, ls ...Layer) {
		shapes = append(shapes, decodeShape{name, bytes.Clone(frame), err, layerSet(ls...), payload})
	}
	const eth, vlan, ip4, ip6, udp, tcp, esp, other = LayerEthernet, LayerVLAN, LayerIPv4, LayerIPv6,
		LayerUDP, LayerTCP, LayerESP, LayerPayload
	udp4 := func(size int) []byte {
		return BuildUDP4(buf[:], size, testSrcMAC, testDstMAC, 0x0A000001, 0xC0A80063, 5000, 6000)
	}
	udp6 := func(size int) []byte {
		return BuildUDP6(buf[:], size, testSrcMAC, testDstMAC,
			IPv6AddrFromParts(0x20010db800000000, 1), IPv6AddrFromParts(0x20010db8aaaa0000, 2), 7, 8)
	}
	for _, size := range []int{42, 60, 64, 65, 128, 1514} {
		add(fmt.Sprintf("udp4-%d", size), udp4(size), nil, size-42, eth, ip4, udp)
	}
	for _, size := range []int{62, 78, 128, 1514} {
		add(fmt.Sprintf("udp6-%d", size), udp6(size), nil, size-62, eth, ip6, udp)
	}
	add("udp4-tagged", tagged(udp4(100), 42), nil, 58, eth, vlan, ip4, udp)
	add("udp6-tagged", tagged(udp6(100), 42), nil, 38, eth, vlan, ip6, udp)

	// IPv4: total length 86 at [16:18], protocol at [23], UDP length 66
	// at [38:40], zero payload from [42].
	m4 := func(name string, f func(m []byte), err error, payload int, ls ...Layer) {
		m := bytes.Clone(udp4(100))
		f(m)
		add(name, m, err, payload, ls...)
	}
	m4("ihl6-option", func(m []byte) { // a real option word: the L4 header moves 4 bytes
		copy(m[38:], m[34:96])
		m[14] = 0x46
		copy(m[34:38], []byte{1, 1, 1, 1})
	}, nil, 54, eth, ip4, udp)
	m4("ihl6-raw", func(m []byte) { m[14] = 0x46 }, ErrBadHdrLen, 0, eth, ip4) // UDP read 4 bytes late: length 0
	m4("ihl15", func(m []byte) { m[14] = 0x4f }, ErrBadHdrLen, 0, eth, ip4)    // likewise, in the zero payload
	m4("version5", func(m []byte) { m[14] = 0x55 }, ErrBadVersion, 0, eth)
	m4("version6-in-ipv4", func(m []byte) { m[14] = 0x65 }, ErrBadVersion, 0, eth)
	m4("tcp", func(m []byte) { m[23] = ProtoTCP; m[46] = 5 << 4 }, nil, 46, eth, ip4, tcp)
	m4("tcp-dataoff0", func(m []byte) { m[23] = ProtoTCP }, ErrBadHdrLen, 0, eth, ip4)
	m4("esp", func(m []byte) { m[23] = ProtoESP }, nil, 66, eth, ip4, esp)
	m4("gre", func(m []byte) { m[23] = 0x2f }, nil, 66, eth, ip4) // unknown L4 stays in Payload
	m4("vlan-where-ipv4-was", func(m []byte) { m[12], m[13] = 0x81, 0x00 }, nil, 82, eth, vlan, other)
	m4("arp", func(m []byte) { m[12], m[13] = 0x08, 0x06 }, nil, 86, eth, other)
	m4("totallen-ffff", func(m []byte) { binary.BigEndian.PutUint16(m[16:18], 0xffff) }, nil, 58, eth, ip4, udp)
	m4("totallen-10", func(m []byte) { binary.BigEndian.PutUint16(m[16:18], 10) }, ErrBadHdrLen, 0, eth)
	m4("totallen-21", func(m []byte) { binary.BigEndian.PutUint16(m[16:18], 21) }, ErrTruncated, 0, eth, ip4)
	m4("totallen-28", func(m []byte) { binary.BigEndian.PutUint16(m[16:18], 28) }, nil, 0, eth, ip4, udp)
	m4("udplen-ffff", func(m []byte) { binary.BigEndian.PutUint16(m[38:40], 0xffff) }, nil, 58, eth, ip4, udp)
	m4("udplen-3", func(m []byte) { binary.BigEndian.PutUint16(m[38:40], 3) }, ErrBadHdrLen, 0, eth, ip4)
	m4("udplen-8", func(m []byte) { binary.BigEndian.PutUint16(m[38:40], 8) }, nil, 0, eth, ip4, udp)

	// IPv6: payload length 46 at [18:20], next header at [20], UDP
	// length 46 at [58:60].
	m6 := func(name string, f func(m []byte), err error, payload int, ls ...Layer) {
		m := bytes.Clone(udp6(100))
		f(m)
		add(name, m, err, payload, ls...)
	}
	m6("version4-in-ipv6", func(m []byte) { m[14] = 0x45 }, ErrBadVersion, 0, eth)
	m6("tcp6-dataoff0", func(m []byte) { m[20] = ProtoTCP }, ErrBadHdrLen, 0, eth, ip6)
	m6("no-next-header", func(m []byte) { m[20] = 0x3b }, nil, 46, eth, ip6)
	m6("payloadlen-ffff", func(m []byte) { binary.BigEndian.PutUint16(m[18:20], 0xffff) }, nil, 38, eth, ip6, udp)
	m6("payloadlen-0", func(m []byte) { binary.BigEndian.PutUint16(m[18:20], 0) }, ErrTruncated, 0, eth, ip6)
	m6("udp6len-ffff", func(m []byte) { binary.BigEndian.PutUint16(m[58:60], 0xffff) }, nil, 38, eth, ip6, udp)
	m6("udp6len-2", func(m []byte) { binary.BigEndian.PutUint16(m[58:60], 2) }, ErrBadHdrLen, 0, eth, ip6)
	return shapes
}

// primers are two frames that between them write every Decoder field:
// a tagged TCP/IPv4 frame and a tagged UDP/IPv6 frame.
var primers = func() [2][]byte {
	var buf [128]byte
	tcp4 := BuildUDP4(buf[:], 100, testDstMAC, testSrcMAC, 0x7f000001, 0x7f000002, 9, 10)
	tcp4[23], tcp4[46] = ProtoTCP, 5<<4
	t4 := tagged(tcp4, 7)
	return [2][]byte{t4, tagged(BuildUDP6(buf[:], 100, testDstMAC, testSrcMAC,
		IPv6AddrFromParts(9, 9), IPv6AddrFromParts(8, 8), 11, 12), 7)}
}()

// usedDecoder returns a Decoder that has parsed the primers, so every
// field holds another frame's values.
func usedDecoder(t testing.TB) *Decoder {
	d := new(Decoder)
	for _, f := range primers {
		if err := d.Decode(f); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// checkDecode decodes frame and fails unless the Decoder's state is
// consistent with the frame and free of the previous frame's: it is
// what every Decode must satisfy on any input, and FuzzDecode's body.
func checkDecode(t testing.TB, frame []byte) (*Decoder, error) {
	t.Helper()
	d := new(Decoder)
	err := d.Decode(frame)

	if n := len(d.Payload); n > 0 {
		off := cap(frame) - cap(d.Payload)
		if off < 0 || off+n > len(frame) || &frame[off] != &d.Payload[0] {
			t.Fatalf("Payload (%d bytes) is not inside the %d-byte frame", n, len(frame))
		}
	}
	has4, has6 := d.Has(LayerIPv4), d.Has(LayerIPv6)
	if err == nil && (!d.Has(LayerEthernet) || has4 && has6) {
		t.Fatalf("nil error with layers %08b", d.layers)
	}
	if d.Has(LayerUDP) && (d.UDP.Length < UDPHdrLen || len(d.Payload) > int(d.UDP.Length)-UDPHdrLen) {
		t.Fatalf("UDP length %d with %d payload bytes", d.UDP.Length, len(d.Payload))
	}
	wantOff := EthHdrLen
	if d.Has(LayerVLAN) {
		wantOff += VLANTagLen
	}
	if d.L3Off != wantOff {
		t.Fatalf("L3Off = %d with layers %08b, want %d", d.L3Off, d.layers, wantOff)
	}
	if has4 && (d.L3Off+int(d.IPv4.IHL)*4 > len(frame) || frame[d.L3Off] != 4<<4|d.IPv4.IHL) {
		t.Fatalf("no IPv4 header of %d words at L3Off %d in a %d-byte frame", d.IPv4.IHL, d.L3Off, len(frame))
	}
	if has6 && (d.L3Off+IPv6HdrLen > len(frame) || frame[d.L3Off]>>4 != 6) {
		t.Fatalf("no IPv6 header at L3Off %d in a %d-byte frame", d.L3Off, len(frame))
	}

	// The decoder lives in recycled chunk state: one that has parsed
	// other frames must end up where a fresh one does.
	u := usedDecoder(t)
	if uerr := u.Decode(frame); uerr != err {
		t.Fatalf("used decoder: error %v, fresh %v", uerr, err)
	}
	if u.layers != d.layers || u.VLANID != d.VLANID || u.L3Off != d.L3Off ||
		!bytes.Equal(u.Payload, d.Payload) || (u.Payload == nil) != (d.Payload == nil) {
		t.Fatalf("used decoder: layers %08b vlan %d l3 %d payload %d, fresh %08b %d %d %d",
			u.layers, u.VLANID, u.L3Off, len(u.Payload), d.layers, d.VLANID, d.L3Off, len(d.Payload))
	}
	if d.Has(LayerEthernet) && u.Eth != d.Eth || has4 && u.IPv4 != d.IPv4 || has6 && u.IPv6 != d.IPv6 ||
		d.Has(LayerUDP) && u.UDP != d.UDP || d.Has(LayerTCP) && u.TCP != d.TCP {
		t.Fatalf("used decoder keeps stale header fields:\n used  %+v\n fresh %+v", *u, *d)
	}
	return d, err
}

// TestDecodeShapes pins what Decode returns for each shape of frame —
// the error and the layers, which the differential never stated — and
// holds checkDecode's properties on every truncation of every row.
func TestDecodeShapes(t *testing.T) {
	for _, s := range decodeShapes() {
		t.Run(s.name, func(t *testing.T) {
			d, err := checkDecode(t, s.frame)
			if err != s.err {
				t.Errorf("error %v, want %v", err, s.err)
			}
			if d.layers != s.layers {
				t.Errorf("layers %08b, want %08b", d.layers, s.layers)
			}
			if s.err == nil && len(d.Payload) != s.payload {
				t.Errorf("%d payload bytes, want %d", len(d.Payload), s.payload)
			}
			for n := range s.frame {
				checkDecode(t, s.frame[:n])
			}
		})
	}
}

// FuzzDecode holds checkDecode on arbitrary bytes.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) { checkDecode(t, frame) })
}
