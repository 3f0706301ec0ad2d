package pktgen

import (
	"bytes"
	"fmt"
	"io"

	"packetshader/internal/packet"
	"packetshader/internal/pcap"
)

// ReplaySource is a nic.FrameSource that replays frames from a pcap
// capture, cycling when the trace ends — trace-driven workloads for the
// router (captures taken from the simulated wire itself, or anywhere
// else).
type ReplaySource struct {
	frames [][]byte
}

// NewReplaySource loads every record from a pcap stream.
func NewReplaySource(r io.Reader) (*ReplaySource, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, err
	}
	recs, err := pr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("pktgen: empty capture")
	}
	s := &ReplaySource{}
	for _, rec := range recs {
		f := make([]byte, len(rec.Data))
		copy(f, rec.Data)
		s.frames = append(s.frames, f)
	}
	return s, nil
}

// NewReplaySourceFromBytes loads a capture held in memory.
func NewReplaySourceFromBytes(b []byte) (*ReplaySource, error) {
	return NewReplaySource(bytes.NewReader(b))
}

// Len returns the number of frames in the trace.
func (s *ReplaySource) Len() int { return len(s.frames) }

// Fill implements nic.FrameSource: packet seq of any queue replays
// trace frame seq mod len (per-queue offsets keep queues from emitting
// identical streams in lockstep).
func (s *ReplaySource) Fill(b *packet.Buf, port, queue int, seq uint64) {
	idx := (seq + uint64(port)*7919 + uint64(queue)*104729) % uint64(len(s.frames))
	f := s.frames[idx]
	b.Reset(len(f))
	copy(b.Data, f)
}
