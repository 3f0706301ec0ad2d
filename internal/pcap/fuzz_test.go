package pcap

import (
	"bytes"
	"testing"

	"packetshader/internal/sim"
)

// FuzzPcapReader feeds the reader arbitrary bytes. It must never panic;
// it may allocate about eight times what the input holds plus 64 KiB
// (a header-only record is 16 bytes of input and a 40-byte Record in a
// doubling slice; a body buffer starts at one page); and frames carved
// from the same bytes, written by a Writer, must read back exactly. The
// in-code seeds are a two-record capture, each of its truncations and
// the overstated-length capture; testdata/fuzz/FuzzPcapReader adds
// records past the reader's one-page first buffer, whole and cut, and
// the header errors.
func FuzzPcapReader(f *testing.F) {
	var capture bytes.Buffer
	w := NewWriter(&capture, 0)
	w.WritePacket(0, frame(60, 1))
	w.WritePacket(sim.Time(1500*sim.Millisecond), frame(100, 2))
	for n := 0; n <= capture.Len(); n++ {
		f.Add(capture.Bytes()[:n])
	}
	f.Add(overstatedCapture())
	f.Fuzz(func(t *testing.T, data []byte) {
		var err error
		n := allocatedBy(func() {
			var r *Reader
			if r, err = NewReader(bytes.NewReader(data)); err == nil {
				_, err = r.ReadAll()
			}
		})
		if limit := 8*uint64(len(data)) + 64<<10; n > limit {
			t.Fatalf("reading %d bytes allocated %d (limit %d), err = %v", len(data), n, limit, err)
		}

		// Each frame is a length byte and up to that many bytes after it.
		var buf bytes.Buffer
		w := NewWriter(&buf, 0)
		var want []Record
		for rest := data; len(rest) > 0; {
			size := min(int(rest[0]), len(rest)-1)
			rec := Record{At: sim.Time(len(want)) * sim.Time(700*sim.Millisecond), Data: rest[1 : 1+size], OrigLen: size}
			if err := w.WritePacket(rec.At, rec.Data); err != nil {
				t.Fatal(err)
			}
			want = append(want, rec)
			rest = rest[1+size:]
		}
		if len(want) == 0 {
			return
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAll()
		if err != nil || len(got) != len(want) {
			t.Fatalf("read back %d of %d records, err = %v", len(got), len(want), err)
		}
		for i := range want {
			if got[i].At != want[i].At || !bytes.Equal(got[i].Data, want[i].Data) || got[i].OrigLen != want[i].OrigLen {
				t.Fatalf("record %d: at %v, %d bytes (orig %d); wrote at %v, %d bytes",
					i, got[i].At, len(got[i].Data), got[i].OrigLen, want[i].At, len(want[i].Data))
			}
		}
	})
}
