package ipsec

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	stdhmac "crypto/hmac"
	stdsha1 "crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"packetshader/internal/packet"
)

// ---------------------------------------------------------------------------
// AES
// ---------------------------------------------------------------------------

func TestAESFIPS197Vector(t *testing.T) {
	// FIPS-197 appendix C.1: NewAES must hand the key to an AES-128
	// block in the encryption direction. CTR cannot reach this vector
	// (its counter block always ends in a counter that starts at 1), so
	// the block is driven directly.
	key, _ := hex.DecodeString("000102030405060708090a0b0c0d0e0f")
	pt, _ := hex.DecodeString("00112233445566778899aabbccddeeff")
	want, _ := hex.DecodeString("69c4e0d86a7b0430d8cdb78070b4c55a")
	got := make([]byte, 16)
	NewAES(key).block.Encrypt(got, pt)
	if !bytes.Equal(got, want) {
		t.Errorf("AES = %x, want %x", got, want)
	}
}

// TestCTRRFC3686Vectors pins the counter-block layout (nonce | iv |
// counter from 1) with the three AES-128 vectors of RFC 3686 §6: one
// block, two blocks, and two blocks plus a 4-byte tail.
func TestCTRRFC3686Vectors(t *testing.T) {
	seq := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i)
		}
		return hex.EncodeToString(b)
	}
	cases := []struct {
		key    string
		nonce  uint32
		iv     uint64
		pt, ct string
	}{
		{"ae6852f8121067cc4bf7a5765577f39e", 0x00000030, 0,
			hex.EncodeToString([]byte("Single block msg")),
			"e4095d4fb7a7b3792d6175a3261311b8"},
		{"7e24067817fae0d743d6ce1f32539163", 0x006cb6db, 0xc0543b59da48d90b,
			seq(32),
			"5104a106168a72d9790d41ee8edad388eb2e1efc46da57c8fce630df9141be28"},
		{"7691be035e5020a8ac6e618529f9a0dc", 0x00e0017b, 0x27777f3f4a1786f0,
			seq(36),
			"c1cf48a89f2ffdd9cf4652e9efdb72d74540a42bde6d7836d59a5ceaaef31053" +
				"25b2072f"},
	}
	for _, p := range ctrPaths {
		t.Run(p.name, func(t *testing.T) {
			skipUnlessVAES(t, p.vaes)
			for i, c := range cases {
				key, _ := hex.DecodeString(c.key)
				pt, _ := hex.DecodeString(c.pt)
				got := make([]byte, len(pt))
				NewAES(key).xorKeyStream(got, pt, c.nonce, c.iv, p.vaes)
				if hex.EncodeToString(got) != c.ct {
					t.Errorf("vector %d: %x, want %s", i+1, got, c.ct)
				}
			}
		})
	}
}

func TestAESInPlace(t *testing.T) {
	a := NewAES(make([]byte, 16))
	buf := make([]byte, 40) // two blocks and a tail
	for i := range buf {
		buf[i] = byte(i)
	}
	want := make([]byte, len(buf))
	a.CTR(want, buf, 7, 9)
	a.CTR(buf, buf, 7, 9) // aliased, as Encap and Decap call it
	if !bytes.Equal(buf, want) {
		t.Error("in-place CTR differs")
	}
}

func TestAESKeyLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewAES(15 bytes) did not panic")
		}
	}()
	NewAES(make([]byte, 15))
}

func TestCTRMatchesStdlib(t *testing.T) {
	for _, p := range ctrPaths {
		t.Run(p.name, func(t *testing.T) {
			skipUnlessVAES(t, p.vaes)
			f := func(key [16]byte, nonce uint32, iv uint64, data []byte) bool {
				if len(data) == 0 {
					return true
				}
				ours := NewAES(key[:])
				got := make([]byte, len(data))
				ours.xorKeyStream(got, data, nonce, iv, p.vaes)

				std, _ := stdaes.NewCipher(key[:])
				ctrBlock := counterBlock(nonce, iv, 1)
				want := make([]byte, len(data))
				cipher.NewCTR(std, ctrBlock[:]).XORKeyStream(want, data)
				return bytes.Equal(got, want)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCTRRoundTrip(t *testing.T) {
	f := func(key [16]byte, nonce uint32, iv uint64, data []byte) bool {
		a := NewAES(key[:])
		ct := make([]byte, len(data))
		a.CTR(ct, data, nonce, iv)
		pt := make([]byte, len(data))
		a.CTR(pt, ct, nonce, iv)
		return bytes.Equal(pt, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// HMAC-SHA1
// ---------------------------------------------------------------------------

func TestHMACSHA1RFC2202Vectors(t *testing.T) {
	cases := []struct{ key, data, want string }{
		{"0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b", "4869205468657265",
			"b617318655057264e28bc0b6fb378c8ef146be00"},
		{"4a656665", "7768617420646f2079612077616e7420666f72206e6f7468696e673f",
			"effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
	}
	for i, c := range cases {
		key, _ := hex.DecodeString(c.key)
		data, _ := hex.DecodeString(c.data)
		h := NewHMACSHA1(key)
		got := h.Sum(data)
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("vector %d: %x, want %s", i, got, c.want)
		}
	}
}

// hmacPaths are Batch's two paths, for the x16 argument of its encap,
// add and flush and of newHMACSHA1.
var hmacPaths = []struct {
	name string
	x16  bool
}{{"stdlib", false}, {"x16", true}}

// skipUnlessRunnable skips the x16 arm of a test on a host without
// AVX-512, naming the missing CPUID or XCR0 bit; the stdlib arm always
// runs.
func skipUnlessRunnable(t testing.TB, x16 bool) {
	if x16 && !useX16 {
		t.Skipf("no x16 path: it needs %s", x16Missing)
	}
}

func stdHMAC(key, msg []byte) []byte {
	std := stdhmac.New(stdsha1.New, key)
	std.Write(msg)
	return std.Sum(nil)
}

// batchICVs queues msgs[i] under macs[i] in order on one Batch, flushes
// it, and returns their ICVs; the batch flushes by itself on every
// change of block shape and every sixteenth job.
func batchICVs(macs []*HMACSHA1, msgs [][]byte, x16 bool) [][ICVSize]byte {
	var b Batch
	bufs := make([][]byte, len(msgs))
	for i, m := range msgs {
		bufs[i] = append(make([]byte, 0, len(m)+ICVSize), m...)
		b.add(macs[i], bufs[i], x16)
	}
	b.flush(x16)
	icvs := make([][ICVSize]byte, len(msgs))
	for i, buf := range bufs {
		icvs[i] = [ICVSize]byte(buf[len(buf) : len(buf)+ICVSize])
	}
	return icvs
}

// TestHMACSHA1Paths holds both Batch paths to crypto/hmac across every
// padding shape: each message length to 2,100 (the tail on each side of
// the 56-byte length boundary, whole blocks, 1500-byte packets) under
// keys shorter than, equal to and longer than the 64-byte block. The
// lengths go through in order, five keys each, so a flush holds one
// shape's neighbouring lengths under mixed keys.
func TestHMACSHA1Paths(t *testing.T) {
	msg := make([]byte, 2100)
	for i := range msg {
		msg[i] = byte(i*31 + 7)
	}
	keyLens := []int{0, 20, 64, 65, 131}
	for _, p := range hmacPaths {
		t.Run(p.name, func(t *testing.T) {
			skipUnlessRunnable(t, p.x16)
			var macs []*HMACSHA1
			for _, kl := range keyLens {
				macs = append(macs, newHMACSHA1(msg[len(msg)-kl:], p.x16))
			}
			const window = 64 // lengths per batchICVs call
			for n0 := 0; n0 <= len(msg); n0 += window {
				var jobMACs []*HMACSHA1
				var msgs [][]byte
				for n := n0; n < n0+window && n <= len(msg); n++ {
					for k := range keyLens {
						jobMACs = append(jobMACs, macs[k])
						msgs = append(msgs, msg[:n])
					}
				}
				for i, icv := range batchICVs(jobMACs, msgs, p.x16) {
					kl := keyLens[i%len(keyLens)]
					if want := stdHMAC(msg[len(msg)-kl:], msgs[i]); !bytes.Equal(icv[:], want[:ICVSize]) {
						t.Fatalf("%d-byte key, %d-byte message: %x, want %x", kl, len(msgs[i]), icv, want[:ICVSize])
					}
				}
			}
		})
	}
}

func TestHMACMatchesStdlib(t *testing.T) {
	f := func(key, data []byte) bool {
		ours := NewHMACSHA1(key)
		got := ours.Sum(data)
		std := stdhmac.New(stdsha1.New, key)
		std.Write(data)
		return bytes.Equal(got[:], std.Sum(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHMACLongKey(t *testing.T) {
	key := bytes.Repeat([]byte{0xaa}, 80) // > block size, must be hashed
	ours := NewHMACSHA1(key)
	std := stdhmac.New(stdsha1.New, key)
	std.Write([]byte("msg"))
	got := ours.Sum([]byte("msg"))
	if !bytes.Equal(got[:], std.Sum(nil)) {
		t.Error("long-key HMAC differs from stdlib")
	}
}

func TestHMACContextReusable(t *testing.T) {
	h := NewHMACSHA1([]byte("key"))
	a1 := h.Sum([]byte("one"))
	_ = h.Sum([]byte("two"))
	a2 := h.Sum([]byte("one"))
	if a1 != a2 {
		t.Error("HMAC context not reusable")
	}
}

func TestICVTruncation(t *testing.T) {
	h := NewHMACSHA1([]byte("k"))
	full := h.Sum([]byte("m"))
	icv := h.ICV([]byte("m"))
	if !bytes.Equal(icv[:], full[:12]) {
		t.Error("ICV is not the 96-bit truncation")
	}
}

// ---------------------------------------------------------------------------
// ESP
// ---------------------------------------------------------------------------

func testSA() (*SA, *SA) {
	enc := []byte("0123456789abcdef")
	auth := []byte("authauthauthauthauth")
	out := NewSA(0x1001, 0xdeadbeef, enc, auth, 0x0A000001, 0x0A000002)
	in := NewSA(0x1001, 0xdeadbeef, enc, auth, 0x0A000001, 0x0A000002)
	return out, in
}

func innerPacket(size int) []byte {
	var buf [2048]byte
	frame := packet.BuildUDP4(buf[:], size+packet.EthHdrLen,
		packet.MAC{}, packet.MAC{}, 0x0B000001, 0x0C000001, 7, 9)
	inner := make([]byte, size)
	copy(inner, frame[packet.EthHdrLen:])
	return inner
}

func TestESPRoundTrip(t *testing.T) {
	sender, receiver := testSA()
	inner := innerPacket(100)
	dst := make([]byte, 2048)
	outer, err := sender.Encap(dst, inner)
	if err != nil {
		t.Fatal(err)
	}
	got, err := receiver.Decap(outer)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, inner) {
		t.Error("decapped inner differs")
	}
}

func TestESPOuterHeaderFields(t *testing.T) {
	sender, _ := testSA()
	outer, err := sender.Encap(make([]byte, 2048), innerPacket(64))
	if err != nil {
		t.Fatal(err)
	}
	var hdr packet.IPv4Hdr
	if _, err := hdr.Decode(outer); err != nil {
		t.Fatal(err)
	}
	if hdr.Protocol != packet.ProtoESP {
		t.Errorf("protocol = %d", hdr.Protocol)
	}
	if hdr.Src != sender.LocalIP || hdr.Dst != sender.PeerIP {
		t.Errorf("outer addresses %v→%v", hdr.Src, hdr.Dst)
	}
	if int(hdr.TotalLen) != len(outer) {
		t.Errorf("TotalLen = %d, len = %d", hdr.TotalLen, len(outer))
	}
	if !packet.VerifyIPv4Checksum(outer) {
		t.Error("outer checksum invalid")
	}
}

func TestESPOverheadMatches(t *testing.T) {
	sender, _ := testSA()
	for _, size := range []int{40, 41, 42, 43, 64, 100, 1400} {
		inner := innerPacket(size)
		outer, err := sender.Encap(make([]byte, 2048), inner)
		if err != nil {
			t.Fatal(err)
		}
		if len(outer) != size+EncapOverhead(size) {
			t.Errorf("size %d: outer %d, want %d", size, len(outer), size+EncapOverhead(size))
		}
		// Trailer alignment (RFC 3686: 4-byte).
		espPayload := len(outer) - packet.IPv4HdrLen - espHdrLen - espIVLen - ICVSize
		if espPayload%4 != 0 {
			t.Errorf("size %d: ESP plaintext %d not 4-byte aligned", size, espPayload)
		}
	}
}

func TestESPCiphertextDiffersFromPlaintext(t *testing.T) {
	sender, _ := testSA()
	inner := innerPacket(200)
	outer, _ := sender.Encap(make([]byte, 2048), inner)
	body := outer[packet.IPv4HdrLen+espHdrLen+espIVLen:]
	if bytes.Contains(body, inner[:40]) {
		t.Error("plaintext visible in ESP body")
	}
}

func TestESPUniqueSequenceAndIV(t *testing.T) {
	sender, _ := testSA()
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		outer, _ := sender.Encap(make([]byte, 2048), innerPacket(64))
		seq := binary.BigEndian.Uint32(outer[packet.IPv4HdrLen+4:])
		iv := binary.BigEndian.Uint64(outer[packet.IPv4HdrLen+8:])
		if seq != uint32(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
		if seen[iv] {
			t.Fatalf("IV reuse at packet %d", i)
		}
		seen[iv] = true
	}
}

func TestESPTamperDetected(t *testing.T) {
	sender, receiver := testSA()
	outer, _ := sender.Encap(make([]byte, 2048), innerPacket(80))
	// Flip one ciphertext bit.
	outer[packet.IPv4HdrLen+espHdrLen+espIVLen+5] ^= 0x01
	if _, err := receiver.Decap(outer); err != ErrAuth {
		t.Errorf("tampered packet: err = %v, want ErrAuth", err)
	}
}

func TestESPReplayRejected(t *testing.T) {
	sender, receiver := testSA()
	outer, _ := sender.Encap(make([]byte, 2048), innerPacket(80))
	cp := make([]byte, len(outer))
	copy(cp, outer)
	if _, err := receiver.Decap(outer); err != nil {
		t.Fatal(err)
	}
	if _, err := receiver.Decap(cp); err != ErrReplay {
		t.Errorf("replay: err = %v, want ErrReplay", err)
	}
}

func TestESPOutOfOrderWithinWindow(t *testing.T) {
	sender, receiver := testSA()
	var pkts [][]byte
	for i := 0; i < 10; i++ {
		outer, _ := sender.Encap(make([]byte, 2048), innerPacket(64))
		cp := make([]byte, len(outer))
		copy(cp, outer)
		pkts = append(pkts, cp)
	}
	// Deliver 9 first, then the rest out of order.
	order := []int{9, 3, 7, 0, 5, 1, 8, 2, 6, 4}
	for _, i := range order {
		if _, err := receiver.Decap(pkts[i]); err != nil {
			t.Fatalf("packet %d rejected: %v", i, err)
		}
	}
}

func TestESPStaleBeyondWindowRejected(t *testing.T) {
	sender, receiver := testSA()
	first, _ := sender.Encap(make([]byte, 2048), innerPacket(64))
	firstCp := make([]byte, len(first))
	copy(firstCp, first)
	// Advance far past the window.
	for i := 0; i < 100; i++ {
		outer, _ := sender.Encap(make([]byte, 2048), innerPacket(64))
		if _, err := receiver.Decap(outer); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := receiver.Decap(firstCp); err != ErrReplay {
		t.Errorf("stale packet: err = %v, want ErrReplay", err)
	}
}

func TestESPWrongSPI(t *testing.T) {
	sender, _ := testSA()
	other := NewSA(0x2002, 0xdeadbeef, []byte("0123456789abcdef"),
		[]byte("auth"), 1, 2)
	outer, _ := sender.Encap(make([]byte, 2048), innerPacket(64))
	if _, err := other.Decap(outer); err != ErrBadSPI {
		t.Errorf("err = %v, want ErrBadSPI", err)
	}
}

func TestESPMalformedTooShort(t *testing.T) {
	_, receiver := testSA()
	short := make([]byte, packet.IPv4HdrLen+10)
	hdr := packet.IPv4Hdr{IHL: 5, TotalLen: uint16(len(short)), TTL: 64,
		Protocol: packet.ProtoESP, Src: 1, Dst: 2}
	hdr.Encode(short)
	if _, err := receiver.Decap(short); err != ErrMalformed {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

func TestESPNonESPProtocol(t *testing.T) {
	_, receiver := testSA()
	var buf [128]byte
	frame := packet.BuildUDP4(buf[:], 64, packet.MAC{}, packet.MAC{}, 1, 2, 3, 4)
	if _, err := receiver.Decap(frame[packet.EthHdrLen:]); err != ErrMalformed {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

// Property: Encap→Decap is the identity for any payload size/content.
func TestESPRoundTripProperty(t *testing.T) {
	f := func(payload []byte, sizeSeed uint16) bool {
		sender, receiver := testSA()
		size := 28 + int(sizeSeed)%1400
		inner := innerPacket(size)
		if len(payload) > 0 {
			copy(inner[28:], payload)
		}
		outer, err := sender.Encap(make([]byte, 2048), inner)
		if err != nil {
			return false
		}
		got, err := receiver.Decap(outer)
		return err == nil && bytes.Equal(got, inner)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReplayWindowUnit(t *testing.T) {
	var w replayWindow
	if w.check(0) {
		t.Error("seq 0 accepted")
	}
	if !w.check(1) {
		t.Error("seq 1 rejected on empty window")
	}
	w.advance(1)
	if w.check(1) {
		t.Error("seq 1 accepted twice")
	}
	w.advance(100)
	if w.check(100) || !w.check(99) || !w.check(37) {
		t.Error("window state wrong after jump to 100")
	}
	if w.check(36) {
		t.Error("seq 36 (100-64) inside 64-bit window accepted") // off=64 ≥ size
	}
	w.advance(99)
	if w.check(99) {
		t.Error("seq 99 accepted twice")
	}
}

func BenchmarkAESCTR1500B(b *testing.B) {
	for _, p := range ctrPaths {
		b.Run(p.name, func(b *testing.B) {
			skipUnlessVAES(b, p.vaes)
			a := NewAES(make([]byte, 16))
			buf := make([]byte, 1500)
			b.SetBytes(1500)
			for i := 0; i < b.N; i++ {
				a.xorKeyStream(buf, buf, 1, uint64(i), p.vaes)
			}
		})
	}
}

func BenchmarkHMACSHA1_1500B(b *testing.B) {
	h := NewHMACSHA1([]byte("key"))
	buf := make([]byte, 1500)
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		_ = h.ICV(buf)
	}
}

// BenchmarkBatchICV16x1536B prices one full batch: sixteen 1,536-byte
// messages (the authenticated region of a 1,514 B frame's ESP packet)
// under one key, on each path.
func BenchmarkBatchICV16x1536B(b *testing.B) {
	for _, p := range hmacPaths {
		b.Run(p.name, func(b *testing.B) {
			skipUnlessRunnable(b, p.x16)
			mac := newHMACSHA1([]byte("key"), p.x16)
			buf := make([]byte, lanes*(1536+ICVSize))
			b.SetBytes(lanes * 1536)
			var batch Batch
			for range b.N {
				for l := range lanes {
					batch.add(mac, buf[l*(1536+ICVSize):][:1536], p.x16)
				}
			}
		})
	}
}

func BenchmarkESPEncap64B(b *testing.B) {
	sender, _ := testSA()
	inner := innerPacket(64)
	dst := make([]byte, 2048)
	for i := 0; i < b.N; i++ {
		if _, err := sender.Encap(dst, inner); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecapNeverPanicsOnGarbage: arbitrary bytes (including valid-ish
// IPv4/ESP prefixes) must be rejected with errors, never a panic.
func TestDecapNeverPanicsOnGarbage(t *testing.T) {
	_, receiver := testSA()
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decap panicked: %v", r)
			}
		}()
		_, _ = receiver.Decap(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestDecapTruncatedESP: every truncation of a valid ESP packet fails
// cleanly.
func TestDecapTruncatedESP(t *testing.T) {
	sender, receiver := testSA()
	outer, _ := sender.Encap(make([]byte, 2048), innerPacket(120))
	for n := 0; n < len(outer); n++ {
		cp := make([]byte, n)
		copy(cp, outer[:n])
		if _, err := receiver.Decap(cp); err == nil {
			t.Fatalf("truncated ESP (%d of %d bytes) accepted", n, len(outer))
		}
	}
}

// TestDecapBitflipSweep: flipping any single byte of a valid ESP packet
// must be detected (header fields → malformed/bad SPI/replay; body/ICV
// → auth failure). No flip may yield a successful decap of wrong data.
func TestDecapBitflipSweep(t *testing.T) {
	inner := innerPacket(64)
	sender, _ := testSA()
	outer, _ := sender.Encap(make([]byte, 2048), inner)
	for pos := 0; pos < len(outer); pos++ {
		// Fresh receiver each time (replay window state).
		_, receiver := testSA()
		cp := make([]byte, len(outer))
		copy(cp, outer)
		cp[pos] ^= 0x01
		got, err := receiver.Decap(cp)
		if err == nil {
			// Flips inside the outer IP header don't break ESP underneath
			// (TOS etc.); the decapped inner must still be intact then.
			if string(got) != string(inner) {
				t.Fatalf("bit flip at %d yielded corrupted plaintext", pos)
			}
		}
	}
}

// goldenESP is one ESP frame's wire bytes — testSA's keys, SPI and
// nonce, goldenInner's bytes, first sequence number. 45 inner bytes need
// one pad byte, so the RFC 4303 trailer is part of what is pinned.
const goldenESP = "45000060000000004032666a0a0000010a000002" + // outer IPv4
	"00001001" + "00000001" + "0000100100000001" + // SPI, seq, IV
	"360b8335c0f46e6215d81b94c38b050b57c438d1b9338621205fcec4d795b1c6" +
	"a7f07e12e24976a584ab34584ec9dd03" + // inner + pad + trailer, ciphered
	"df2dcf2be8f7efae283270a5" // ICV

func goldenInner() []byte {
	inner := make([]byte, 45)
	for i := range inner {
		inner[i] = byte(7*i + 3)
	}
	return inner
}

// TestESPGoldenFrame pins the wire bytes of one ESP frame independently
// of whichever AES and SHA-1 sit underneath.
func TestESPGoldenFrame(t *testing.T) {
	inner := goldenInner()
	sender, receiver := testSA()
	outer, err := sender.Encap(make([]byte, 2048), inner)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(outer); got != goldenESP {
		t.Errorf("ESP frame\n got %s\nwant %s", got, goldenESP)
	}
	frame, _ := hex.DecodeString(goldenESP)
	if got, err := receiver.Decap(frame); err != nil || !bytes.Equal(got, inner) {
		t.Errorf("golden frame decaps to %x, %v", got, err)
	}
}

// TestEncapAliasedMatchesDisjoint: Encap promises that dst may alias
// inner. Built in place — inner at the front of the cell it is
// encapsulated into, the way IPsecGW.RunKernel calls it, and at every
// other offset that fits — the frame is the one built into a separate
// buffer, byte for byte, and both are the golden frame.
func TestEncapAliasedMatchesDisjoint(t *testing.T) {
	inner := goldenInner()
	for off := 0; off+len(inner) <= len(goldenESP)/2; off++ {
		cell := make([]byte, 256)
		for i := range cell {
			cell[i] = 0xEE // stale bytes of an earlier frame
		}
		copy(cell[off:], inner)
		sender, _ := testSA()
		outer, err := sender.Encap(cell, cell[off:off+len(inner)])
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(outer); got != goldenESP {
			t.Fatalf("inner at offset %d of its own dst\n got %s\nwant %s", off, got, goldenESP)
		}
		if &outer[0] != &cell[0] {
			t.Fatal("Encap did not build the frame in dst")
		}
	}
	// Longer than the headers in front of it, so source and destination
	// of the move overlap; RunKernel's 1514 B case.
	long := innerPacket(1500)
	a, b := testSA()
	disjoint, err := a.Encap(make([]byte, 2048), long)
	if err != nil {
		t.Fatal(err)
	}
	cell := make([]byte, 2048)
	copy(cell, long)
	aliased, err := b.Encap(cell, cell[:len(long)])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aliased, disjoint) {
		t.Error("1500 B inner: in-place frame differs from the one built into a separate buffer")
	}
}

// TestEncapRefusesUnencodableLength: the outer IPv4 header states its
// total length in 16 bits. The largest inner packet that fits goes
// through; one byte more is refused before dst or the sequence counter
// is touched, not sent with the length wrapped.
func TestEncapRefusesUnencodableLength(t *testing.T) {
	// ESP packets are 48 bytes plus a multiple of four, so the largest
	// is 65,532: a 65,482-byte inner packet, which needs no padding.
	const maxInner, maxOuter = 65482, 65532
	if maxInner+EncapOverhead(maxInner) != maxOuter || maxInner+1+EncapOverhead(maxInner+1) <= 65535 {
		t.Fatal("test arithmetic: 65,482 is not the largest inner packet that fits")
	}
	sender, receiver := testSA()
	dst := bytes.Repeat([]byte{0xEE}, 70000)
	for _, n := range []int{maxInner + 1, maxInner + 2, 69000} {
		if out, err := sender.Encap(dst, make([]byte, n)); err != ErrMalformed || out != nil {
			t.Errorf("%d-byte inner: out = %d bytes, err = %v, want ErrMalformed", n, len(out), err)
		}
	}
	if !bytes.Equal(dst, bytes.Repeat([]byte{0xEE}, len(dst))) {
		t.Error("a refused Encap wrote into dst")
	}
	inner := make([]byte, maxInner)
	inner[0], inner[maxInner-1] = 0x45, 0x7F
	outer, err := sender.Encap(dst, inner)
	if err != nil || len(outer) != maxOuter {
		t.Fatalf("%d-byte inner: %d bytes out, err = %v", maxInner, len(outer), err)
	}
	if seq := binary.BigEndian.Uint32(outer[24:28]); seq != 1 {
		t.Errorf("sequence number %d after three refusals, want 1", seq)
	}
	if got, err := receiver.Decap(outer); err != nil || !bytes.Equal(got, inner) {
		t.Errorf("largest frame does not decap: err = %v", err)
	}
}

// TestEncapRefusesSpentSequenceNumbers: an SA sends sequence number
// 2^32 - 1 once; every packet after it is refused with ErrSeqExhausted
// before dst or the counter is touched, through SA.Encap and through
// Batch.Encap alike, instead of wrapping to 0 and 1 and reusing packet
// 1's IV and so its keystream.
func TestEncapRefusesSpentSequenceNumbers(t *testing.T) {
	encaps := map[string]func(sa *SA, dst, inner []byte) ([]byte, error){
		"SA.Encap": (*SA).Encap,
		"Batch.Encap": func(sa *SA, dst, inner []byte) ([]byte, error) {
			var b Batch
			defer b.Flush()
			return b.Encap(sa, dst, inner)
		},
	}
	inner := innerPacket(64)
	for name, encap := range encaps {
		t.Run(name, func(t *testing.T) {
			sender, receiver := testSA()
			sender.seq = math.MaxUint32 - 1
			dst := make([]byte, 2048)
			last, err := encap(sender, dst, inner)
			if err != nil {
				t.Fatalf("sequence number 2^32 - 1: %v", err)
			}
			if seq := binary.BigEndian.Uint32(last[24:28]); seq != math.MaxUint32 {
				t.Fatalf("sequence number %#x, want 0xffffffff", seq)
			}
			if got, err := receiver.Decap(bytes.Clone(last)); err != nil || !bytes.Equal(got, inner) {
				t.Fatalf("last frame does not decap: err = %v", err)
			}
			dst = bytes.Repeat([]byte{0xEE}, len(dst))
			for range 2 {
				if out, err := encap(sender, dst, inner); err != ErrSeqExhausted || out != nil {
					t.Errorf("after 2^32 - 1: out = %d bytes, err = %v, want ErrSeqExhausted", len(out), err)
				}
			}
			if !bytes.Equal(dst, bytes.Repeat([]byte{0xEE}, len(dst))) {
				t.Error("a refused Encap wrote into dst")
			}
			if sender.seq != math.MaxUint32 {
				t.Errorf("counter %#x after the refusals, want 0xffffffff", sender.seq)
			}
		})
	}
}

// TestCryptoPaths logs which crypto paths this host runs, so a run on a
// host without AVX-512 or VAES says which arms it skipped.
func TestCryptoPaths(t *testing.T) {
	t.Logf("useX16 = %v (missing: %q), useVAES = %v (missing: %q)", useX16, x16Missing, useVAES, vaesMissing)
}

// TestBatchMatchesEncap: Batch.Encap then Flush builds, packet for
// packet, the frames SA.Encap builds on a twin SA — bytes, sequence
// numbers and refusals — on both paths. Five SAs with different keys
// (one longer than the 64-byte block) take turns. ESP's authenticated
// region is a multiple of four bytes, so its tails here are 0, 52, 56
// and 60 (each side of the 56-byte length edge and the block edge);
// TestHMACSHA1Paths and FuzzHMACSHA1 hold the other tails. Three
// orders: every neighbour a different length, one shape in fourteen
// lengths (full batches of mixed lengths: every tail below 56), and
// runs of sixteen equal lengths; each in batches of 1, 15, 16, 17 and 240 packets, with an
// unencodable packet in the longest.
func TestBatchMatchesEncap(t *testing.T) {
	authKeys := [][]byte{
		[]byte("authauthauthauthauth"), nil, []byte("k"),
		bytes.Repeat([]byte{0x36}, 64), bytes.Repeat([]byte{0xa7}, 100),
	}
	twins := func(x16 bool) []*SA {
		sas := make([]*SA, len(authKeys))
		for i, k := range authKeys {
			sas[i] = NewSA(0x2000+uint32(i), 0xc0de0000+uint32(i), []byte("0123456789abcdef"), k, 0x0A000001, 0x0A000002)
			sas[i].hmac = newHMACSHA1(k, x16)
		}
		return sas
	}
	// Inner lengths whose authenticated regions (inner + 18 bytes, for
	// these lengths) end 0, 52, 56 and 60 bytes into a block.
	var mixed []int
	for _, blocks := range []int{0, 1, 2, 23} {
		for _, tail := range []int{0, 52, 56, 60} {
			if a := 64*blocks + tail; a > 20 {
				mixed = append(mixed, a-18)
			}
		}
	}
	orders := map[string]func(i int) int{
		"neighbours differ": func(i int) int { return mixed[i%len(mixed)] },
		"one shape":         func(i int) int { return 64*23 + 4*(i%14) - 18 },
		"runs of sixteen":   func(i int) int { return mixed[(i/lanes)%len(mixed)] },
	}
	const unencodable = 65483
	for _, p := range hmacPaths {
		t.Run(p.name, func(t *testing.T) {
			skipUnlessRunnable(t, p.x16)
			for name, length := range orders {
				for _, n := range []int{1, 15, 16, 17, 240} {
					batched, direct := twins(p.x16), twins(false)
					var b Batch
					var got, want [][]byte
					for i := range n {
						size := length(i)
						if i == 100 {
							size = unencodable
						}
						inner := bytes.Repeat([]byte{byte(i)}, size)
						room := min(size+EncapOverhead(size), 2048)
						out, err := b.encap(batched[i%len(authKeys)], make([]byte, room), inner, p.x16)
						ref, refErr := direct[i%len(authKeys)].Encap(make([]byte, room), inner)
						if err != refErr {
							t.Fatalf("%s, %d packets, packet %d: err %v, SA.Encap's %v", name, n, i, err, refErr)
						}
						got, want = append(got, out), append(want, ref)
					}
					b.flush(p.x16)
					for i := range got {
						if !bytes.Equal(got[i], want[i]) {
							t.Fatalf("%s, %d packets, packet %d (%d B inner): frame differs from SA.Encap's\n got %x\nwant %x",
								name, n, i, length(i), got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestCryptoPathDoesNotAllocate: the per-packet calls run once per
// packet of every ipsec experiment, so a single allocation in any of
// them is millions per run. The GCM path's AEAD scratch grows to the
// largest input it has seen — once, in the warm call each case gets — so
// the claim holds for a 16 KiB jumbo as it does for 1500 B. Both
// keystream paths and both Batch paths are held to it.
func TestCryptoPathDoesNotAllocate(t *testing.T) {
	for _, size := range []int{1500, 16 << 10} {
		buf := make([]byte, size)
		a := NewAES(make([]byte, 16))
		sender, receiver := testSA()
		inner := make([]byte, size)
		dst := make([]byte, size+EncapOverhead(size))
		cases := []struct {
			name string
			f    func()
		}{
			{"AES.CTR", func() { a.CTR(buf, buf, 1, 2) }},
			{"AES.CTR/gcm", func() { a.xorKeyStream(buf, buf, 1, 2, false) }},
			{"SA.Encap", func() {
				if _, err := sender.Encap(dst, inner); err != nil {
					t.Fatal(err)
				}
			}},
			// Each Decap consumes the frame the Encap before it produced,
			// so the replay window keeps advancing; only Decap may not
			// allocate here, and Encap is already held to zero above.
			{"SA.Decap", func() {
				outer, _ := sender.Encap(dst, inner)
				if _, err := receiver.Decap(outer); err != nil {
					t.Fatal(err)
				}
			}},
		}
		for _, c := range cases {
			c.f() // warm
			if n := testing.AllocsPerRun(100, c.f); n != 0 {
				t.Errorf("%s, %d B: %v allocations per call, want 0", c.name, size, n)
			}
		}
		t.Run(fmt.Sprintf("HMACSHA1.ICV/stdlib/%dB", size), func(t *testing.T) {
			h := NewHMACSHA1([]byte("key"))
			if n := testing.AllocsPerRun(100, func() { _ = h.ICV(buf) }); n != 0 {
				t.Errorf("%v allocations per call, want 0", n)
			}
		})
		// Seventeen packets: a full batch, which flushes by itself, and
		// one more for Flush.
		for _, p := range hmacPaths {
			t.Run(fmt.Sprintf("Batch/%s/%dB", p.name, size), func(t *testing.T) {
				skipUnlessRunnable(t, p.x16)
				sender, _ := testSA()
				sender.hmac = newHMACSHA1([]byte("authauthauthauthauth"), p.x16)
				var b Batch
				f := func() {
					for range lanes + 1 {
						if _, err := b.encap(sender, dst, inner, p.x16); err != nil {
							t.Fatal(err)
						}
					}
					b.flush(p.x16)
				}
				f()
				if n := testing.AllocsPerRun(100, f); n != 0 {
					t.Errorf("%v allocations per %d packets, want 0", n, lanes+1)
				}
			})
		}
	}
}
