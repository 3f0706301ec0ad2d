package ipsec

import (
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
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
// GPU maps one packet per thread. With the x86 SHA extensions the
// context is SHA-1's states after the ipad and opad blocks, advanced by
// blockSHANI; without, the standard library's HMAC. Neither allocates
// per call; like AES, one context serves one goroutine at a time.
type HMACSHA1 struct {
	mac          hash.Hash // the standard library's HMAC; nil on the SHA-NI path
	sum          [SHA1Size]byte
	inner, outer [5]uint32 // SHA-NI path: the states after ipad / opad
}

// NewHMACSHA1 builds a context for key (any length).
func NewHMACSHA1(key []byte) *HMACSHA1 {
	return newHMACSHA1(key, useSHANI)
}

// newHMACSHA1 builds the SHA-NI context if shani, else the stdlib one.
func newHMACSHA1(key []byte, shani bool) *HMACSHA1 {
	if !shani {
		return &HMACSHA1{mac: hmac.New(sha1.New, key)}
	}
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
	iv := [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}
	h := &HMACSHA1{inner: iv, outer: iv}
	blockSHANI(&h.inner, ipad[:])
	blockSHANI(&h.outer, opad[:])
	return h
}

// Sum computes HMAC-SHA1(key, msg).
func (h *HMACSHA1) Sum(msg []byte) [SHA1Size]byte {
	if h.mac != nil {
		h.mac.Reset()
		h.mac.Write(msg)
		h.mac.Sum(h.sum[:0])
		return h.sum
	}
	var inner [SHA1Size]byte
	sumSHANI(&h.inner, msg, inner[:])
	sumSHANI(&h.outer, inner[:], h.sum[:])
	return h.sum
}

// sumSHANI hashes a key block, whose state is key, and msg into out:
// msg's whole blocks where they lie, then its tail, 0x80, zeros and the
// bit length of key block and msg — one block, or two when the tail
// leaves no room for the length.
func sumSHANI(key *[5]uint32, msg, out []byte) {
	d := *key
	whole := len(msg) &^ (sha1.BlockSize - 1)
	blockSHANI(&d, msg[:whole])
	var pad [2 * sha1.BlockSize]byte
	tail := copy(pad[:], msg[whole:])
	pad[tail] = 0x80
	end := sha1.BlockSize
	if tail >= sha1.BlockSize-8 {
		end += sha1.BlockSize
	}
	binary.BigEndian.PutUint64(pad[end-8:end], uint64(sha1.BlockSize+len(msg))*8)
	blockSHANI(&d, pad[:end])
	for i, w := range d {
		binary.BigEndian.PutUint32(out[4*i:], w)
	}
}

// ICV computes the 96-bit truncated HMAC-SHA1 authenticator.
func (h *HMACSHA1) ICV(msg []byte) [ICVSize]byte {
	full := h.Sum(msg)
	return [ICVSize]byte(full[:ICVSize])
}
