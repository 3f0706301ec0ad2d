package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"packetshader/internal/packet"
	"packetshader/internal/sim"
)

func frame(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestGlobalHeaderGolden(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 65535)
	if err := w.WritePacket(0, frame(60, 0)); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()[:globalHeaderLen]
	if binary.LittleEndian.Uint32(hdr[0:4]) != MagicNanos {
		t.Errorf("magic = %#x", binary.LittleEndian.Uint32(hdr[0:4]))
	}
	if binary.LittleEndian.Uint16(hdr[4:6]) != 2 || binary.LittleEndian.Uint16(hdr[6:8]) != 4 {
		t.Error("version not 2.4")
	}
	if binary.LittleEndian.Uint32(hdr[16:20]) != 65535 {
		t.Error("snaplen wrong")
	}
	if binary.LittleEndian.Uint32(hdr[20:24]) != LinkTypeEthernet {
		t.Error("link type not Ethernet")
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	times := []sim.Time{
		0,
		sim.Time(70 * sim.Nanosecond),
		sim.Time(1500 * sim.Millisecond), // > 1 second: sec field used
	}
	for i, at := range times {
		if err := w.WritePacket(at, frame(64+i*10, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, rec := range recs {
		if rec.At != times[i] {
			t.Errorf("record %d at %v, want %v", i, rec.At, times[i])
		}
		if len(rec.Data) != 64+i*10 || rec.OrigLen != len(rec.Data) {
			t.Errorf("record %d len %d/%d", i, len(rec.Data), rec.OrigLen)
		}
		for _, b := range rec.Data {
			if b != byte(i+1) {
				t.Fatalf("record %d payload corrupted", i)
			}
		}
	}
}

func TestSnaplenTruncates(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 96)
	if err := w.WritePacket(0, frame(1514, 0xAB)); err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(bytes.NewReader(buf.Bytes()))
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 96 || rec.OrigLen != 1514 {
		t.Errorf("truncation: incl %d orig %d", len(rec.Data), rec.OrigLen)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	junk := make([]byte, globalHeaderLen)
	if _, err := NewReader(bytes.NewReader(junk)); err != ErrBadMagic {
		t.Errorf("err = %v", err)
	}
}

// TestReaderEOFMidRecord: a stream cut inside a record, in its header or
// its body, is a damaged capture, not a shorter clean one. ReadAll
// returns the whole records before the cut and io.ErrUnexpectedEOF
// naming the record; only a cut between records is io.EOF.
func TestReaderEOFMidRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	w.WritePacket(0, frame(64, 1))
	w.WritePacket(0, frame(64, 2))
	second := globalHeaderLen + recordHeaderLen + 64
	for _, cut := range []int{second + 8, second + recordHeaderLen + 10} {
		r, _ := NewReader(bytes.NewReader(buf.Bytes()[:cut]))
		recs, err := r.ReadAll()
		if len(recs) != 1 || !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "record 1") {
			t.Errorf("cut at byte %d: %d records, err = %v; want 1 and record 1's io.ErrUnexpectedEOF", cut, len(recs), err)
		}
	}
	r, _ := NewReader(bytes.NewReader(buf.Bytes()[:second]))
	if recs, err := r.ReadAll(); len(recs) != 1 || err != nil {
		t.Errorf("cut between records: %d records, err = %v; want 1 and nil", len(recs), err)
	}
}

// overstatedCapture is 40 bytes: a global header with snaplen
// 0xffffffff and one record header claiming 0xfffffff0 bytes, no body.
func overstatedCapture() []byte {
	b := make([]byte, globalHeaderLen+recordHeaderLen)
	binary.LittleEndian.PutUint32(b[0:4], MagicNanos)
	binary.LittleEndian.PutUint32(b[16:20], 0xffffffff)
	binary.LittleEndian.PutUint32(b[20:24], LinkTypeEthernet)
	binary.LittleEndian.PutUint32(b[globalHeaderLen+8:], 0xfffffff0)
	return b
}

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReaderAllocatesWhatTheFileHolds: a record's length field is the
// file's claim. The reader's buffer grows with the bytes that arrive,
// and an overstated length is a truncated record, not the end of a
// clean capture.
func TestReaderAllocatesWhatTheFileHolds(t *testing.T) {
	r, err := NewReader(bytes.NewReader(overstatedCapture()))
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	n := allocatedBy(func() { recs, err = r.ReadAll() })
	if n > 64<<10 {
		t.Errorf("reading a 40-byte capture allocated %d bytes", n)
	}
	if len(recs) != 0 || !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "record 0") {
		t.Errorf("%d records, err = %v; want none and record 0's io.ErrUnexpectedEOF", len(recs), err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte, nsOffsets []uint32) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf, 0)
		var want [][]byte
		for i, p := range payloads {
			if len(p) == 0 {
				continue
			}
			var at sim.Time
			if i < len(nsOffsets) {
				at = sim.Time(nsOffsets[i]) * sim.Time(sim.Nanosecond)
			}
			if err := w.WritePacket(at, p); err != nil {
				return false
			}
			want = append(want, p)
		}
		if len(want) == 0 {
			return true
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		recs, err := r.ReadAll()
		if err != nil || len(recs) != len(want) {
			return false
		}
		for i := range recs {
			if !bytes.Equal(recs[i].Data, want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTapSamplingAndLimit(t *testing.T) {
	var buf bytes.Buffer
	tap := &Tap{W: NewWriter(&buf, 0), SampleEvery: 3, Limit: 2}
	pool := packet.NewBufPool(128)
	for i := 0; i < 12; i++ {
		b := pool.Get(64)
		b.Data[0] = byte(i)
		tap.Observe(b, sim.Time(i)*sim.Time(sim.Microsecond))
		b.Release()
	}
	if tap.Err != nil {
		t.Fatal(tap.Err)
	}
	r, _ := NewReader(bytes.NewReader(buf.Bytes()))
	recs, _ := r.ReadAll()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (every 3rd, limit 2)", len(recs))
	}
	if recs[0].Data[0] != 0 || recs[1].Data[0] != 3 {
		t.Errorf("sampled packets %d,%d want 0,3", recs[0].Data[0], recs[1].Data[0])
	}
}

func TestTapDefaultsSampleEveryOne(t *testing.T) {
	var buf bytes.Buffer
	tap := &Tap{W: NewWriter(&buf, 0)}
	pool := packet.NewBufPool(128)
	for i := 0; i < 5; i++ {
		tap.Observe(pool.Get(64), 0)
	}
	if tap.W.Packets != 5 {
		t.Errorf("packets = %d", tap.W.Packets)
	}
}
