package packet

import "encoding/binary"

// Layer identifies a decoded protocol layer.
type Layer uint8

// Layers reported by Decoder.Decode.
const (
	LayerEthernet Layer = iota
	LayerVLAN
	LayerIPv4
	LayerIPv6
	LayerUDP
	LayerTCP
	LayerESP
	LayerPayload
)

// Decoder decodes a frame into preallocated header structs without
// allocating (the DecodingLayerParser pattern): construct one Decoder per
// worker thread and reuse it for every packet of a chunk. A header
// struct holds the last Decode's values only when Has reports its
// layer; otherwise it keeps whatever an earlier frame left there.
type Decoder struct {
	Eth    EthernetHdr
	VLANID uint16 // 0xffff if untagged
	IPv4   IPv4Hdr
	IPv6   IPv6Hdr
	UDP    UDPHdr
	TCP    TCPHdr

	// Payload is the innermost undecoded payload (nil after an error).
	Payload []byte
	// L3Off is where the network header starts in the frame: EthHdrLen,
	// or EthHdrLen+VLANTagLen behind an 802.1Q tag. Code that rewrites
	// the IP header in place indexes with it, not with the constant.
	L3Off int

	layers uint8 // bit l set: Layer l was decoded
}

// VLANNone is the VLANID value for untagged frames.
const VLANNone = 0xffff

// Decode parses frame starting at Ethernet. It stops (without error) at
// the first layer it does not understand, leaving it in Payload.
func (d *Decoder) Decode(frame []byte) error {
	d.layers = 0
	d.VLANID = VLANNone
	d.L3Off = EthHdrLen
	d.Payload = nil
	b, err := d.Eth.Decode(frame)
	if err != nil {
		return err
	}
	d.layers = 1 << LayerEthernet
	et := d.Eth.EtherType
	if et == EtherTypeVLAN {
		if len(b) < VLANTagLen {
			return ErrTruncated
		}
		d.VLANID = binary.BigEndian.Uint16(b[0:2]) & 0x0fff
		et = binary.BigEndian.Uint16(b[2:4])
		b = b[VLANTagLen:]
		d.L3Off = EthHdrLen + VLANTagLen
		d.layers |= 1 << LayerVLAN
	}
	var proto uint8
	switch et {
	case EtherTypeIPv4:
		if b, err = d.IPv4.Decode(b); err != nil {
			return err
		}
		d.layers |= 1 << LayerIPv4
		proto = d.IPv4.Protocol
	case EtherTypeIPv6:
		if b, err = d.IPv6.Decode(b); err != nil {
			return err
		}
		d.layers |= 1 << LayerIPv6
		proto = d.IPv6.NextHeader
	default:
		d.Payload = b
		d.layers |= 1 << LayerPayload
		return nil
	}
	switch proto {
	case ProtoUDP:
		if b, err = d.UDP.Decode(b); err != nil {
			return err
		}
		d.layers |= 1 << LayerUDP
	case ProtoTCP:
		if b, err = d.TCP.Decode(b); err != nil {
			return err
		}
		d.layers |= 1 << LayerTCP
	case ProtoESP:
		d.layers |= 1 << LayerESP
	}
	d.Payload = b
	return nil
}

// DecodeFast is Decode under the name bench/micro.go calls; bench/ is
// frozen outside changes to the benchmark, and the next such change
// switches it to Decode and deletes this. Nothing else may call it:
// scripts/onepath.sh fails if anything outside bench/ does.
func (d *Decoder) DecodeFast(frame []byte) error { return d.Decode(frame) }

// Has reports whether layer l was decoded by the last Decode.
func (d *Decoder) Has(l Layer) bool { return d.layers&(1<<l) != 0 }
