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
// GPU maps one packet per thread. The digest is written into
// struct-owned scratch so that a call does not allocate; like AES, one
// context serves one goroutine at a time.
type HMACSHA1 struct {
	mac hash.Hash
	sum [SHA1Size]byte
}

// NewHMACSHA1 builds a context for key (any length).
func NewHMACSHA1(key []byte) *HMACSHA1 {
	return &HMACSHA1{mac: hmac.New(sha1.New, key)}
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
