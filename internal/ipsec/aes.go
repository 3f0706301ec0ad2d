// Package ipsec implements the data path of PacketShader's IPsec
// gateway (§6.2.4): AES-128 in CTR mode and HMAC-SHA1-96, wrapped in ESP
// tunnel-mode encapsulation. The block cipher and the hash come from the
// Go standard library; this package owns the framing around them — the
// RFC 3686 counter block, the RFC 2404 truncation, and the RFC 4303 ESP
// layout, padding and anti-replay window. The host's crypto speed never
// reaches the results: what the paper offloads to the GPU (AES per
// 16-byte block, SHA1 per packet) is charged on the virtual clock by
// gpu.KernelIPsec and model.IPsecCPUPer{Packet,Byte}Cycles.
package ipsec

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
)

// AES-128 parameters.
const (
	AESBlockSize = aes.BlockSize
	AESKeySize   = 16
)

// AES is an AES-128 key in the encryption direction, which is all CTR
// mode needs. The counter block, the first keystream block and the
// AEAD's output buffer live in the struct because arrays passed through
// the cipher interfaces escape to the heap on every CTR call; an AES
// therefore serves one goroutine at a time, like the SA that owns it.
type AES struct {
	block   cipher.Block
	gcm     cipher.AEAD // the multi-block keystream engine, see CTR
	ctr, ks [AESBlockSize]byte
	sealed  []byte // gcm.Seal output; grows to the largest src seen + tag
}

// NewAES prepares a 16-byte key (panics on wrong length — keys come from
// the SA configuration, not the wire).
func NewAES(key []byte) *AES {
	if len(key) != AESKeySize {
		panic("ipsec: AES-128 key must be 16 bytes")
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err) // only a bad key length, excluded above
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		panic(err) // only a block size other than 16
	}
	return &AES{block: block, gcm: gcm}
}

// CTR applies AES-CTR keystream to src into dst (encrypt == decrypt;
// dst may be src). The 16-byte counter block follows RFC 3686: nonce(4)
// | iv(8) | counter(4), with the counter starting at 1. blocks processed
// = ceil(len/16); the per-block keystream generation is the unit the GPU
// kernel parallelizes (§6.2.4: "we chop packets into AES blocks (16B)
// and map each block to one GPU thread").
//
// The host gets its many blocks in flight from the standard library's
// GCM: under the 96-bit nonce N = nonce | iv, GCM XORs its plaintext
// with E(N|2), E(N|3), … (inc32 from J0 = N|1), which are RFC 3686's
// keystream blocks 1, 2, …, and both counters wrap at 32 bits. So block
// 0 is one Block.Encrypt of N|1, the rest of src goes through one Seal,
// and the tag Seal appends is dropped. Seal may not write over its
// input inexactly and always appends 16 bytes, hence the scratch.
func (a *AES) CTR(dst, src []byte, nonce uint32, iv uint64) {
	dst = dst[:len(src)] // a short dst panics here, not after block 0
	binary.BigEndian.PutUint32(a.ctr[0:4], nonce)
	binary.BigEndian.PutUint64(a.ctr[4:12], iv)
	binary.BigEndian.PutUint32(a.ctr[12:16], 1)
	a.block.Encrypt(a.ks[:], a.ctr[:])
	subtle.XORBytes(dst, src, a.ks[:])
	if len(src) <= AESBlockSize {
		return
	}
	rest := src[AESBlockSize:]
	if need := len(rest) + a.gcm.Overhead(); cap(a.sealed) < need {
		a.sealed = make([]byte, 0, need)
	}
	a.sealed = a.gcm.Seal(a.sealed[:0], a.ctr[:12], rest, nil)
	copy(dst[AESBlockSize:], a.sealed[:len(rest)])
}
