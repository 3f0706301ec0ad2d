package ipsec

import (
	"bytes"
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

// FuzzCTR holds AES.CTR to the block-at-a-time loop (ctrBlockLoop,
// aes_test.go) on arbitrary keys, nonces, IVs and data,
// out of place and in place. The checked-in seeds sit on the edges the
// AEAD route has: the hand-made first block (15/16/17 bytes) and the
// engine's eight-block stride behind it (127/128/129 and 143/144/145).
func FuzzCTR(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint32(0x30), uint64(0), []byte("Single block msg"))
	f.Fuzz(func(t *testing.T, key []byte, nonce uint32, iv uint64, data []byte) {
		var k [AESKeySize]byte
		copy(k[:], key) // any bytes make a key: cut or zero-filled to size
		checkCTR(t, NewAES(k[:]), data, nonce, iv)
	})
}
