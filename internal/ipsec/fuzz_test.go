package ipsec

import (
	"bytes"
	"crypto/sha1"
	"testing"
)

// FuzzDecap feeds Decap arbitrary bytes. It must never panic; it must
// return one of the four Decap errors or an inner packet that lies
// inside the input; an accepted frame must be a replay the second time;
// and the same bytes sent as an inner packet through a peer's Encap must
// come back unchanged. The in-code seeds are the corpora of
// TestDecapTruncatedESP and TestDecapBitflipSweep; testdata/fuzz/FuzzDecap
// holds one frame per return class plus garbage.
func FuzzDecap(f *testing.F) {
	sender, _ := testSA()
	valid, _ := sender.Encap(make([]byte, 2048), innerPacket(64))
	f.Add(valid)
	for n := range valid {
		f.Add(valid[:n])
		flipped := bytes.Clone(valid)
		flipped[n] ^= 0x01
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytes.Clone(data) // Decap decrypts in place
		_, receiver := testSA()
		inner, err := receiver.Decap(data)
		switch err {
		case nil:
			off := cap(data) - cap(inner)
			if off < 0 || off+len(inner) > len(data) ||
				(len(inner) > 0 && &inner[0] != &data[off]) {
				t.Fatalf("inner packet (len %d) lies outside the %d-byte input", len(inner), len(data))
			}
			if _, err := receiver.Decap(bytes.Clone(orig)); err != ErrReplay {
				t.Fatalf("accepted frame replayed: err = %v, want ErrReplay", err)
			}
		case ErrAuth, ErrReplay, ErrMalformed, ErrBadSPI:
		default:
			t.Fatalf("Decap returned an undeclared error: %v", err)
		}

		dst := make([]byte, 2048) // one standard packet cell
		if len(orig)+EncapOverhead(len(orig)) > len(dst) {
			return
		}
		sender, receiver := testSA()
		outer, err := sender.Encap(dst, orig)
		if err != nil {
			t.Fatalf("Encap of %d bytes: %v", len(orig), err)
		}
		got, err := receiver.Decap(outer)
		if err != nil || !bytes.Equal(got, orig) {
			t.Fatalf("Encap→Decap of %d bytes: err = %v, equal = %v", len(orig), err, bytes.Equal(got, orig))
		}
	})
}

// FuzzHMACSHA1 holds HMACSHA1.Sum and both Batch paths to crypto/hmac
// on arbitrary keys and messages; on a host without AVX-512 the x16 path
// is left out. In a batch the fuzzed (key, message) takes one lane of a
// full sixteen, beside fifteen other lengths of its block shape under
// three other keys, and every lane is checked. The checked-in seeds sit
// on the padding edges (messages of 0, 55, 56, 63, 64, 119, 120 and
// 1,500 bytes) under keys of 0, 64, 65 and 200 bytes: empty, one block,
// one over (hashed first) and several blocks.
func FuzzHMACSHA1(f *testing.F) {
	f.Add([]byte("key"), []byte("message"))
	f.Fuzz(func(t *testing.T, key, msg []byte) {
		want := stdHMAC(key, msg)
		if got := NewHMACSHA1(key).Sum(msg); !bytes.Equal(got[:], want) {
			t.Fatalf("Sum, %d-byte key, %d-byte message: %x, want %x", len(key), len(msg), got, want)
		}
		others := [][]byte{nil, []byte("authauthauthauthauth"), bytes.Repeat([]byte{0x5c}, 100)}
		filler := make([]byte, len(msg)+sha1.BlockSize)
		for i := range filler {
			filler[i] = byte(i*13 + 1)
		}
		lane := (len(key) + len(msg)) % lanes
		for _, p := range hmacPaths {
			if p.x16 && !useX16 {
				continue
			}
			keys := make([][]byte, lanes)
			macs := make([]*HMACSHA1, lanes)
			msgs := make([][]byte, lanes)
			for l := range lanes {
				keys[l], msgs[l] = others[l%len(others)], filler[:sameShape(len(msg), l)]
				if l == lane {
					keys[l], msgs[l] = key, msg
				}
				macs[l] = newHMACSHA1(keys[l], p.x16)
			}
			for l, icv := range batchICVs(macs, msgs, p.x16) {
				if w := stdHMAC(keys[l], msgs[l]); !bytes.Equal(icv[:], w[:ICVSize]) {
					t.Fatalf("%s path, lane %d of 16 (fuzzed lane %d), %d-byte key, %d-byte message: %x, want %x",
						p.name, l, lane, len(keys[l]), len(msgs[l]), icv, w[:ICVSize])
				}
			}
		}
	})
}

// sameShape returns the l-th of the other message lengths with n's block
// shape: n's whole blocks, and a tail on n's side of the 56-byte edge.
func sameShape(n, l int) int {
	whole, tail := n-n%sha1.BlockSize, n%sha1.BlockSize
	if tail < sha1.BlockSize-8 {
		return whole + (tail+7*(l+1))%(sha1.BlockSize-8)
	}
	return whole + sha1.BlockSize - 8 + (tail+l+1)%8
}

// FuzzCTR holds both AES.CTR paths to the block-at-a-time loop
// (ctrBlockLoop, aes_test.go) on arbitrary keys, nonces, IVs and data,
// out of place and in place; on a host without VAES that path is left
// out. The checked-in seeds sit on the edges the GCM route has: the
// hand-made first block (15/16/17 bytes) and the engine's eight-block
// stride behind it (127/128/129 and 143/144/145); and on ctrVAES's: a
// 64-byte register (63/64/65) and a 256-byte pass (255/256/257).
func FuzzCTR(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint32(0x30), uint64(0), []byte("Single block msg"))
	f.Fuzz(func(t *testing.T, key []byte, nonce uint32, iv uint64, data []byte) {
		var k [AESKeySize]byte
		copy(k[:], key) // any bytes make a key: cut or zero-filled to size
		a := NewAES(k[:])
		for _, p := range ctrPaths {
			if !p.vaes || useVAES {
				checkCTR(t, a, data, nonce, iv, p.vaes)
			}
		}
	})
}
