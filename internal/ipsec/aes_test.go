package ipsec

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// ctrPaths are AES.CTR's two keystream paths, for the vaes argument of
// xorKeyStream.
var ctrPaths = []struct {
	name string
	vaes bool
}{{"gcm", false}, {"vaes", true}}

// skipUnlessVAES skips the VAES arm of a test on a host without it,
// naming the missing CPUID or XCR0 bit.
func skipUnlessVAES(t testing.TB, vaes bool) {
	t.Helper()
	if vaes && !useVAES {
		t.Skipf("no VAES path: it needs %s", vaesMissing)
	}
}

// ctrBlocksFrom is CTR written out block by block from the counter block
// ctr — one Encrypt and one XOR per 16 bytes, the 32-bit counter in
// bytes 12-15 wrapping: the oracle both keystream paths are held to.
func ctrBlocksFrom(a *AES, dst, src []byte, ctr [AESBlockSize]byte) {
	var ks [AESBlockSize]byte
	n := binary.BigEndian.Uint32(ctr[12:16])
	for off := 0; off < len(src); off += AESBlockSize {
		binary.BigEndian.PutUint32(ctr[12:16], n)
		a.block.Encrypt(ks[:], ctr[:])
		subtle.XORBytes(dst[off:], src[off:], ks[:])
		n++
	}
}

// counterBlock is RFC 3686's nonce | iv | counter.
func counterBlock(nonce uint32, iv uint64, n uint32) (ctr [AESBlockSize]byte) {
	binary.BigEndian.PutUint32(ctr[0:4], nonce)
	binary.BigEndian.PutUint64(ctr[4:12], iv)
	binary.BigEndian.PutUint32(ctr[12:16], n)
	return ctr
}

// ctrBlockLoop is RFC 3686 block by block, the counter from 1.
func ctrBlockLoop(a *AES, dst, src []byte, nonce uint32, iv uint64) {
	ctrBlocksFrom(a, dst, src, counterBlock(nonce, iv, 1))
}

// checkCTR runs one keystream path of AES.CTR over src and compares it
// with the block loop.
func checkCTR(t *testing.T, a *AES, src []byte, nonce uint32, iv uint64, vaes bool) {
	t.Helper()
	want := make([]byte, len(src))
	ctrBlockLoop(a, want, src, nonce, iv)
	checkXOR(t, fmt.Sprintf("vaes=%v len %d nonce %#x iv %#x", vaes, len(src), nonce, iv), src, want,
		func(dst, src []byte) { a.xorKeyStream(dst, src, nonce, iv, vaes) })
}

// checkXOR runs xor out of place and in place over src and compares both
// with want; the bytes around an out-of-place dst must stay as they
// were.
func checkXOR(t *testing.T, what string, src, want []byte, xor func(dst, src []byte)) {
	t.Helper()
	const guard = 0xA5
	framed := bytes.Repeat([]byte{guard}, len(src)+2*AESBlockSize)
	dst := framed[AESBlockSize : AESBlockSize+len(src)]
	xor(dst, src)
	if !bytes.Equal(dst, want) {
		t.Fatalf("%s: dst != src differs from the block loop", what)
	}
	for i, b := range framed {
		if (i < AESBlockSize || i >= AESBlockSize+len(src)) && b != guard {
			t.Fatalf("%s: wrote outside dst, at offset %d", what, i-AESBlockSize)
		}
	}

	inPlace := bytes.Clone(src)
	xor(inPlace, inPlace)
	if !bytes.Equal(inPlace, want) {
		t.Fatalf("%s: dst == src differs from the block loop", what)
	}
}

// TestCTRMatchesBlockLoop: every length a packet can have and then
// some, under random nonces and IVs and under the all-ones IV, and one
// call long enough that the AEAD scratch has to grow after it had
// settled; on both paths.
func TestCTRMatchesBlockLoop(t *testing.T) {
	for _, p := range ctrPaths {
		t.Run(p.name, func(t *testing.T) {
			skipUnlessVAES(t, p.vaes)
			rng := rand.New(rand.NewSource(20))
			key := make([]byte, AESKeySize)
			rng.Read(key)
			a := NewAES(key)
			data := make([]byte, 70000)
			rng.Read(data)
			for n := 0; n <= 4096; n++ {
				checkCTR(t, a, data[:n], rng.Uint32(), rng.Uint64(), p.vaes)
				checkCTR(t, a, data[:n], rng.Uint32(), 1<<64-1, p.vaes)
			}
			checkCTR(t, a, data, rng.Uint32(), rng.Uint64(), p.vaes)
			checkCTR(t, a, data[:1500], rng.Uint32(), rng.Uint64(), p.vaes) // and back down
		})
	}
}

// TestCTRVAESCounterEdges starts ctrVAES from crafted counters: the
// counter block of each lane is built from the first one by adding in
// dword 3, so the counter must cross a 64-byte register and a 256-byte
// pass in every lane, and wrap from 2^32 - 1 to 0 at each of those
// places, without carrying into the IV.
func TestCTRVAESCounterEdges(t *testing.T) {
	skipUnlessVAES(t, true)
	rng := rand.New(rand.NewSource(33))
	key := make([]byte, AESKeySize)
	rng.Read(key)
	a := NewAES(key)
	data := make([]byte, 1100)
	rng.Read(data)
	for _, start := range []uint32{0, 1, 0x00ff_fffe, 0xffff_ff00, 1<<32 - 40, 1<<32 - 17, 1<<32 - 16, 1<<32 - 5, 1<<32 - 4, 1<<32 - 1} {
		for _, n := range []int{1, 16, 63, 64, 65, 200, 255, 256, 257, 320, 511, 512, 513, 700, 1100} {
			ctr := counterBlock(0xdeadbeef, 0x0123456789abcdef, start)
			want := make([]byte, n)
			ctrBlocksFrom(a, want, data[:n], ctr)
			checkXOR(t, fmt.Sprintf("counter %#x, len %d", start, n), data[:n], want, func(dst, src []byte) {
				ctrVAES(&a.rk, &dst[0], &src[0], len(src), &ctr)
			})
		}
	}
}

// TestAESKeySchedule: the expansion ctrVAES runs on is FIPS-197's
// (Appendix A.1: round keys 1 and 10 of 2b7e1516 28aed2a6 abf71588
// 09cf4f3c).
func TestAESKeySchedule(t *testing.T) {
	key, _ := hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
	rk := NewAES(key).rk
	for _, c := range []struct {
		round int
		want  string
	}{
		{0, "2b7e151628aed2a6abf7158809cf4f3c"},
		{1, "a0fafe1788542cb123a339392a6c7605"},
		{10, "d014f9a8c9ee2589e13f0cc8b6630ca6"},
	} {
		if got := hex.EncodeToString(rk[c.round][:]); got != c.want {
			t.Errorf("round key %d = %s, want %s", c.round, got, c.want)
		}
	}
}
