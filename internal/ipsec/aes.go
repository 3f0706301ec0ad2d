// Package ipsec implements the data path of PacketShader's IPsec
// gateway (§6.2.4): AES-128 in CTR mode and HMAC-SHA1-96, wrapped in ESP
// tunnel-mode encapsulation. Where the CPU has AVX-512, this package's
// assembly does the bulk work the paper gives GPU threads: AES.CTR's
// keystream sixteen blocks per pass on VAES, and Batch's SHA-1 sixteen
// packets per pass; elsewhere both come from the Go standard library,
// as does single-message HMAC everywhere. This package owns the framing —
// the RFC 3686 counter block, the RFC 2404 truncation, and the RFC 4303
// ESP layout, padding and anti-replay window. Host crypto speed never
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
	rk      [11][AESBlockSize]byte // the key schedule ctrVAES runs on
	block   cipher.Block
	gcm     cipher.AEAD // the keystream engine without VAES, see CTR
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
	return &AES{rk: expandKey(key), block: block, gcm: gcm}
}

// CTR applies AES-CTR keystream to src into dst (encrypt == decrypt;
// dst may be src). The 16-byte counter block follows RFC 3686: nonce(4)
// | iv(8) | counter(4), with the counter starting at 1. blocks processed
// = ceil(len/16); the per-block keystream generation is the unit the GPU
// kernel parallelizes (§6.2.4: "we chop packets into AES blocks (16B)
// and map each block to one GPU thread"), and ctrVAES runs sixteen such
// blocks per pass, one per 128-bit lane.
//
// Without VAES the host gets its many blocks in flight from the
// standard library's GCM: under the 96-bit nonce N = nonce | iv, GCM
// XORs its plaintext with E(N|2), E(N|3), … (inc32 from J0 = N|1), which
// are RFC 3686's keystream blocks 1, 2, …, and both counters wrap at 32
// bits. So block 0 is one Block.Encrypt of N|1, the rest of src goes
// through one Seal, and the tag Seal appends is dropped. Seal may not
// write over its input inexactly and always appends 16 bytes, hence the
// scratch.
func (a *AES) CTR(dst, src []byte, nonce uint32, iv uint64) {
	a.xorKeyStream(dst, src, nonce, iv, useVAES)
}

// xorKeyStream is CTR, on ctrVAES if vaes, else through GCM.
func (a *AES) xorKeyStream(dst, src []byte, nonce uint32, iv uint64, vaes bool) {
	dst = dst[:len(src)] // a short dst panics here, not after block 0
	binary.BigEndian.PutUint32(a.ctr[0:4], nonce)
	binary.BigEndian.PutUint64(a.ctr[4:12], iv)
	binary.BigEndian.PutUint32(a.ctr[12:16], 1)
	if vaes {
		if len(src) > 0 {
			ctrVAES(&a.rk, &dst[0], &src[0], len(src), &a.ctr)
		}
		return
	}
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

// expandKey is the AES-128 key expansion (FIPS-197 §5.2): eleven round
// keys, each in the byte order AESENC loads.
func expandKey(key []byte) (rk [11][AESBlockSize]byte) {
	copy(rk[0][:], key)
	for r := 1; r < len(rk); r++ {
		prev := &rk[r-1]
		// temp = SubWord(RotWord(w[i-1])) ^ Rcon; then w[i] = w[i-4] ^
		// temp, and each next word is w[i-4] ^ w[i-1].
		t := [4]byte{sbox[prev[13]] ^ rcon[r-1], sbox[prev[14]], sbox[prev[15]], sbox[prev[12]]}
		for i := range rk[r] {
			t[i%4] ^= prev[i]
			rk[r][i] = t[i%4]
		}
	}
	return rk
}

// rcon is the first byte of each round's constant, x^(r-1) in GF(2^8).
var rcon = [10]byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36}

// sbox is AES's SubBytes table (FIPS-197 Figure 7).
var sbox = [256]byte{
	0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
	0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
	0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
	0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
	0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
	0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
	0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
	0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
	0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
	0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
	0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
	0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
	0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
	0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
	0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
	0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
}
