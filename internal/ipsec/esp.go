package ipsec

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"math"

	"packetshader/internal/packet"
)

// ESP framing constants (RFC 4303, tunnel mode, AES-CTR per RFC 3686).
const (
	espHdrLen = 8 // SPI(4) + sequence(4)
	espIVLen  = 8 // explicit per-packet IV for AES-CTR
	// espAlign is the trailer alignment for AES-CTR payloads.
	espAlign = 4
)

// Decap errors.
var (
	ErrAuth      = errors.New("ipsec: ICV verification failed")
	ErrReplay    = errors.New("ipsec: replayed or stale sequence number")
	ErrMalformed = errors.New("ipsec: malformed ESP packet")
	ErrBadSPI    = errors.New("ipsec: unknown SPI")
)

// SA is a security association: one direction of an ESP tunnel.
type SA struct {
	SPI     uint32
	LocalIP packet.IPv4Addr // outer source on encap
	PeerIP  packet.IPv4Addr // outer destination on encap

	aes   *AES
	hmac  *HMACSHA1
	nonce uint32

	seq    uint32 // outbound sequence counter
	replay replayWindow
}

// NewSA creates an SA with a 16-byte AES key and an arbitrary-length
// HMAC key. nonce is the RFC 3686 per-SA salt.
func NewSA(spi, nonce uint32, encKey, authKey []byte, local, peer packet.IPv4Addr) *SA {
	return &SA{
		SPI:     spi,
		LocalIP: local,
		PeerIP:  peer,
		aes:     NewAES(encKey),
		hmac:    NewHMACSHA1(authKey),
		nonce:   nonce,
	}
}

// EncapOverhead returns the total bytes Encap adds to an inner packet of
// the given length (outer IPv4 + ESP header + IV + pad + trailer + ICV).
func EncapOverhead(innerLen int) int {
	padded := padLen(innerLen)
	return packet.IPv4HdrLen + espHdrLen + espIVLen + (padded - innerLen) + 2 + ICVSize
}

// padLen returns innerLen padded so that payload+padlen+nexthdr is
// 4-byte aligned.
func padLen(innerLen int) int {
	rem := (innerLen + 2) % espAlign
	if rem == 0 {
		return innerLen
	}
	return innerLen + (espAlign - rem)
}

// Encap wraps inner (a complete inner IP packet) in tunnel-mode ESP and
// returns the outer IPv4 packet written into dst (which must have
// capacity for len(inner)+EncapOverhead). The sequence number and IV are
// taken from the SA's outbound counter. An inner packet whose outer form
// is longer than an IPv4 total length can say (65,535), or a dst too
// small, is refused with ErrMalformed before dst or the counter is
// touched.
//
// dst may alias inner — a gateway builds the ESP packet in the cell the
// inner packet arrived in: the first thing Encap writes is inner, moved
// to its place behind the headers (copy is overlap-safe), and every
// other write lands outside that region.
func (sa *SA) Encap(dst, inner []byte) ([]byte, error) {
	padded := padLen(len(inner))
	pad := padded - len(inner)
	total := packet.IPv4HdrLen + espHdrLen + espIVLen + padded + 2 + ICVSize
	if total > math.MaxUint16 || cap(dst) < total {
		return nil, ErrMalformed
	}
	out := dst[:total]
	esp := out[packet.IPv4HdrLen:]
	body := esp[espHdrLen+espIVLen:]

	// Plaintext: inner packet + monotonic pad bytes + padlen + next
	// header (4 = IPv4-in-IPsec).
	pt := body[:padded+2]
	copy(pt, inner)
	for i := 0; i < pad; i++ {
		pt[len(inner)+i] = byte(i + 1) // RFC 4303 default pad pattern
	}
	pt[padded] = byte(pad)
	pt[padded+1] = 4

	sa.seq++
	seq := sa.seq
	iv := uint64(sa.SPI)<<32 | uint64(seq) // unique per (key, packet)

	// Outer IPv4 header.
	outer := packet.IPv4Hdr{
		IHL: 5, TotalLen: uint16(total), TTL: 64,
		Protocol: packet.ProtoESP, Src: sa.LocalIP, Dst: sa.PeerIP,
	}
	outer.Encode(out)

	// ESP header + IV.
	binary.BigEndian.PutUint32(esp[0:4], sa.SPI)
	binary.BigEndian.PutUint32(esp[4:8], seq)
	binary.BigEndian.PutUint64(esp[8:16], iv)

	// Encrypt in place.
	sa.aes.CTR(pt, pt, sa.nonce, iv)

	// ICV over ESP header through trailer.
	icv := sa.hmac.ICV(esp[:espHdrLen+espIVLen+padded+2])
	copy(body[padded+2:], icv[:])
	return out, nil
}

// Decap validates and unwraps an outer IPv4+ESP packet, returning the
// inner IP packet (aliasing the decrypted region of outer).
func (sa *SA) Decap(outer []byte) ([]byte, error) {
	var hdr packet.IPv4Hdr
	payload, err := hdr.Decode(outer)
	if err != nil || hdr.Protocol != packet.ProtoESP {
		return nil, ErrMalformed
	}
	if len(payload) < espHdrLen+espIVLen+2+ICVSize {
		return nil, ErrMalformed
	}
	spi := binary.BigEndian.Uint32(payload[0:4])
	if spi != sa.SPI {
		return nil, ErrBadSPI
	}
	seq := binary.BigEndian.Uint32(payload[4:8])
	if !sa.replay.check(seq) {
		return nil, ErrReplay
	}

	authed := payload[:len(payload)-ICVSize]
	wantICV := payload[len(payload)-ICVSize:]
	icv := sa.hmac.ICV(authed)
	if subtle.ConstantTimeCompare(icv[:], wantICV) != 1 {
		return nil, ErrAuth
	}
	// Only now advance the replay window (ICV verified).
	sa.replay.advance(seq)

	iv := binary.BigEndian.Uint64(payload[8:16])
	ct := authed[espHdrLen+espIVLen:]
	sa.aes.CTR(ct, ct, sa.nonce, iv)

	padB := int(ct[len(ct)-2])
	next := ct[len(ct)-1]
	if next != 4 || padB > len(ct)-2 {
		return nil, ErrMalformed
	}
	return ct[:len(ct)-2-padB], nil
}

// ---------------------------------------------------------------------------
// Anti-replay window (RFC 4303 §3.4.3), 64-bit sliding bitmap.
// ---------------------------------------------------------------------------

type replayWindow struct {
	top    uint32 // highest sequence accepted
	bitmap uint64 // bit i == seq (top - i) seen
}

const replayWindowSize = 64

// check reports whether seq would be acceptable (not replayed/stale).
func (w *replayWindow) check(seq uint32) bool {
	if seq == 0 {
		return false // ESP sequence numbers start at 1
	}
	if seq > w.top {
		return true
	}
	off := w.top - seq
	if off >= replayWindowSize {
		return false
	}
	return w.bitmap&(1<<off) == 0
}

// advance marks seq as seen (call only after authentication).
func (w *replayWindow) advance(seq uint32) {
	if seq > w.top {
		shift := seq - w.top
		if shift >= replayWindowSize {
			w.bitmap = 0
		} else {
			w.bitmap <<= shift
		}
		w.top = seq
		w.bitmap |= 1
		return
	}
	w.bitmap |= 1 << (w.top - seq)
}
