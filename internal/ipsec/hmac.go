package ipsec

import (
	"crypto/hmac"
	"crypto/sha1"
	"hash"
)

const (
	SHA1Size = sha1.Size
	// ICVSize is the truncated authenticator length used by ESP (RFC 2404).
	ICVSize = 12
)

// HMACSHA1 is a reusable HMAC-SHA1 (RFC 2104) context for a fixed key.
// HMAC-SHA1 cannot be parallelized below packet granularity because each
// 64-byte block depends on the previous block's state (§6.2.4), so the
// GPU maps one packet per thread, and Batch one packet per AVX-512 lane.
// Sum and ICV hash one message with the standard library's HMAC and do
// not allocate per call; like AES, one context serves one goroutine at
// a time.
type HMACSHA1 struct {
	mac hash.Hash
	sum [SHA1Size]byte
	// inner and outer are SHA-1's states after the ipad and opad blocks,
	// where Batch's lanes start; set only where blockSHA1x16 runs.
	inner, outer [5]uint32
}

// NewHMACSHA1 builds a context for key (any length).
func NewHMACSHA1(key []byte) *HMACSHA1 {
	return newHMACSHA1(key, useX16)
}

// newHMACSHA1 builds the context, with Batch's lane states if x16.
func newHMACSHA1(key []byte, x16 bool) *HMACSHA1 {
	h := &HMACSHA1{mac: hmac.New(sha1.New, key)}
	if x16 {
		h.inner, h.outer = padStates(key)
	}
	return h
}

// sha1IV is SHA-1's initial state (FIPS 180-4 §5.3.1).
var sha1IV = [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}

// padStates compresses key's ipad and opad blocks (a key over 64 B is
// hashed first) in one blockSHA1x16 call, on lanes 0 and 1.
func padStates(key []byte) (inner, outer [5]uint32) {
	if len(key) > sha1.BlockSize {
		k := sha1.Sum(key)
		key = k[:]
	}
	var ipad, opad [sha1.BlockSize]byte
	copy(ipad[:], key)
	copy(opad[:], key)
	for i := range ipad {
		ipad[i] ^= 0x36
		opad[i] ^= 0x5c
	}
	var h [5][lanes]uint32
	var p [lanes]*byte
	for l := range p {
		p[l] = &ipad[0]
	}
	p[1] = &opad[0]
	for w, v := range sha1IV {
		h[w][0], h[w][1] = v, v
	}
	blockSHA1x16(&h, &p, 1)
	for w := range inner {
		inner[w], outer[w] = h[w][0], h[w][1]
	}
	return inner, outer
}

// Sum computes HMAC-SHA1(key, msg).
func (h *HMACSHA1) Sum(msg []byte) [SHA1Size]byte {
	h.mac.Reset()
	h.mac.Write(msg)
	h.mac.Sum(h.sum[:0])
	return h.sum
}

// ICV computes the 96-bit truncated HMAC-SHA1 authenticator.
func (h *HMACSHA1) ICV(msg []byte) [ICVSize]byte {
	full := h.Sum(msg)
	return [ICVSize]byte(full[:ICVSize])
}
