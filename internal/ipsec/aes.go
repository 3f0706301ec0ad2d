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
// mode needs. The counter and keystream blocks live in the struct
// because stack arrays passed through the cipher.Block interface escape
// to the heap on every CTR call; an AES therefore serves one goroutine
// at a time, like the SA that owns it.
type AES struct {
	block   cipher.Block
	ctr, ks [AESBlockSize]byte
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
	return &AES{block: block}
}

// CTR applies AES-CTR keystream to src into dst (encrypt == decrypt;
// dst may be src). The 16-byte counter block follows RFC 3686: nonce(4)
// | iv(8) | counter(4), with the counter starting at 1. blocks processed
// = ceil(len/16); the per-block keystream generation is the unit the GPU
// kernel parallelizes (§6.2.4: "we chop packets into AES blocks (16B)
// and map each block to one GPU thread").
func (a *AES) CTR(dst, src []byte, nonce uint32, iv uint64) {
	binary.BigEndian.PutUint32(a.ctr[0:4], nonce)
	binary.BigEndian.PutUint64(a.ctr[4:12], iv)
	ctr := uint32(1)
	for off := 0; off < len(src); off += AESBlockSize {
		binary.BigEndian.PutUint32(a.ctr[12:16], ctr)
		a.block.Encrypt(a.ks[:], a.ctr[:])
		subtle.XORBytes(dst[off:], src[off:], a.ks[:])
		ctr++
	}
}
