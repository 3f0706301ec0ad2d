// Package pcap writes and reads classic libpcap capture files
// (nanosecond variant), so traffic crossing the simulated router can be
// inspected with standard tools (tcpdump -r, Wireshark). A Tap hooks a
// TX port's completion callback and records each transmitted frame at
// its virtual transmission time.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"packetshader/internal/packet"
	"packetshader/internal/sim"
)

// File format constants.
const (
	// MagicNanos is the nanosecond-resolution pcap magic.
	MagicNanos = 0xa1b23c4d
	// LinkTypeEthernet is DLT_EN10MB.
	LinkTypeEthernet = 1

	versionMajor = 2
	versionMinor = 4

	globalHeaderLen = 24
	recordHeaderLen = 16
)

// ErrBadMagic reports a file that is not a nanosecond pcap.
var ErrBadMagic = errors.New("pcap: bad magic")

// Writer emits a pcap stream.
type Writer struct {
	w        io.Writer
	snaplen  int
	wroteHdr bool
	// Packets counts records written.
	Packets uint64
}

// NewWriter creates a writer with the given snap length (0 = 65535).
func NewWriter(w io.Writer, snaplen int) *Writer {
	if snaplen <= 0 {
		snaplen = 65535
	}
	return &Writer{w: w, snaplen: snaplen}
}

func (w *Writer) writeHeader() error {
	var hdr [globalHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MagicNanos)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone, sigfigs zero.
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(w.snaplen))
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	_, err := w.w.Write(hdr[:])
	w.wroteHdr = true
	return err
}

// WritePacket records one frame captured at virtual time at.
func (w *Writer) WritePacket(at sim.Time, frame []byte) error {
	if !w.wroteHdr {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	ns := int64(at) / int64(sim.Nanosecond)
	sec := uint32(ns / 1e9)
	nsec := uint32(ns % 1e9)
	incl := len(frame)
	if incl > w.snaplen {
		incl = w.snaplen
	}
	var rec [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(rec[0:4], sec)
	binary.LittleEndian.PutUint32(rec[4:8], nsec)
	binary.LittleEndian.PutUint32(rec[8:12], uint32(incl))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(frame)))
	if _, err := w.w.Write(rec[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(frame[:incl]); err != nil {
		return err
	}
	w.Packets++
	return nil
}

// Record is one captured packet.
type Record struct {
	At      sim.Time
	Data    []byte
	OrigLen int
}

// Reader parses a pcap stream written by Writer.
type Reader struct {
	r       io.Reader
	snaplen uint32 // the file's word: on a 32-bit host it may not fit an int
	records int    // records returned so far: the next one's index
}

// NewReader validates the global header and returns a reader.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [globalHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != MagicNanos {
		return nil, ErrBadMagic
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:24]); lt != LinkTypeEthernet {
		return nil, fmt.Errorf("pcap: unsupported link type %d", lt)
	}
	return &Reader{r: r, snaplen: binary.LittleEndian.Uint32(hdr[16:20])}, nil
}

// Next returns the next record, or io.EOF where the stream ends between
// records. A record cut short, in its header or its body, is
// io.ErrUnexpectedEOF wrapped with the record's index.
func (r *Reader) Next() (Record, error) {
	var rec [recordHeaderLen]byte
	if n, err := io.ReadFull(r.r, rec[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("pcap: record %d: header cut at %d of %d bytes: %w", r.records, n, recordHeaderLen, err)
	}
	sec := binary.LittleEndian.Uint32(rec[0:4])
	nsec := binary.LittleEndian.Uint32(rec[4:8])
	incl := binary.LittleEndian.Uint32(rec[8:12])
	orig := binary.LittleEndian.Uint32(rec[12:16])
	if incl > r.snaplen {
		return Record{}, fmt.Errorf("pcap: record %d: length %d exceeds snaplen %d", r.records, incl, r.snaplen)
	}
	// incl is the file's word, not the bytes present: the buffer starts
	// at one page at most and doubles only as bytes arrive, so a header
	// that overstates its body costs about what the file holds. The
	// arithmetic stays in uint32, where the word fits on every host.
	data := make([]byte, min(incl, 4096))
	n, err := io.ReadFull(r.r, data)
	for err == nil && uint32(n) < incl {
		data = append(data, make([]byte, min(incl-uint32(n), uint32(n)))...)
		var m int
		m, err = io.ReadFull(r.r, data[n:])
		n += m
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, fmt.Errorf("pcap: record %d: body cut at %d of %d bytes: %w", r.records, n, incl, err)
	}
	r.records++
	at := sim.Time(int64(sec)*1e9+int64(nsec)) * sim.Time(sim.Nanosecond)
	return Record{At: at, Data: data, OrigLen: int(orig)}, nil
}

// ReadAll drains the stream.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// Tap samples transmitted frames into a Writer. Attach Observe to a
// TxPort's OnComplete. SampleEvery downsamples (1 = every packet);
// Limit stops the capture after that many records (0 = unlimited).
type Tap struct {
	W           *Writer
	SampleEvery uint64
	Limit       uint64

	seen uint64
	// Err holds the first write error (captures are best-effort).
	Err error
}

// Observe records b if the sampling policy selects it.
func (t *Tap) Observe(b *packet.Buf, at sim.Time) {
	t.seen++
	every := t.SampleEvery
	if every == 0 {
		every = 1
	}
	if (t.seen-1)%every != 0 {
		return
	}
	if t.Limit > 0 && t.W.Packets >= t.Limit {
		return
	}
	if err := t.W.WritePacket(at, b.Data); err != nil && t.Err == nil {
		t.Err = err
	}
}
