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

		dst := make([]byte, 2048) // the gateway's staging size
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
