package ipsec

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"math/rand"
	"testing"
)

// ctrBlockLoop is RFC 3686 written out block by block — one Encrypt of
// nonce | iv | counter and one XOR per 16 bytes, the counter from 1 and
// wrapping at 32 bits: the oracle AES.CTR, which takes its keystream
// from the AEAD engine, is held to.
func ctrBlockLoop(a *AES, dst, src []byte, nonce uint32, iv uint64) {
	var ctr, ks [AESBlockSize]byte
	binary.BigEndian.PutUint32(ctr[0:4], nonce)
	binary.BigEndian.PutUint64(ctr[4:12], iv)
	n := uint32(1)
	for off := 0; off < len(src); off += AESBlockSize {
		binary.BigEndian.PutUint32(ctr[12:16], n)
		a.block.Encrypt(ks[:], ctr[:])
		subtle.XORBytes(dst[off:], src[off:], ks[:])
		n++
	}
}

// checkCTR runs AES.CTR out of place and in place over src and compares
// both with the block loop; the bytes around an out-of-place dst must
// stay as they were.
func checkCTR(t *testing.T, a *AES, src []byte, nonce uint32, iv uint64) {
	t.Helper()
	want := make([]byte, len(src))
	ctrBlockLoop(a, want, src, nonce, iv)

	const guard = 0xA5
	framed := bytes.Repeat([]byte{guard}, len(src)+2*AESBlockSize)
	dst := framed[AESBlockSize : AESBlockSize+len(src)]
	a.CTR(dst, src, nonce, iv)
	if !bytes.Equal(dst, want) {
		t.Fatalf("len %d nonce %#x iv %#x: dst != src differs from the block loop", len(src), nonce, iv)
	}
	for i, b := range framed {
		if (i < AESBlockSize || i >= AESBlockSize+len(src)) && b != guard {
			t.Fatalf("len %d: CTR wrote outside dst, at offset %d", len(src), i-AESBlockSize)
		}
	}

	inPlace := bytes.Clone(src)
	a.CTR(inPlace, inPlace, nonce, iv)
	if !bytes.Equal(inPlace, want) {
		t.Fatalf("len %d nonce %#x iv %#x: dst == src differs from the block loop", len(src), nonce, iv)
	}
}

// TestCTRMatchesBlockLoop: every length a packet can have and then
// some, under random nonces and IVs and under the all-ones IV, and one
// call long enough that the AEAD scratch has to grow after it had
// settled.
func TestCTRMatchesBlockLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	key := make([]byte, AESKeySize)
	rng.Read(key)
	a := NewAES(key)
	data := make([]byte, 70000)
	rng.Read(data)
	for n := 0; n <= 4096; n++ {
		checkCTR(t, a, data[:n], rng.Uint32(), rng.Uint64())
		checkCTR(t, a, data[:n], rng.Uint32(), 1<<64-1)
	}
	checkCTR(t, a, data, rng.Uint32(), rng.Uint64())
	checkCTR(t, a, data[:1500], rng.Uint32(), rng.Uint64()) // and back down
}
