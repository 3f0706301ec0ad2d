// Package pktgen is the traffic generator and sink of §6.1: it
// synthesizes UDP flows with random addresses and ports (so IP
// forwarding and OpenFlow look up a different entry for every packet),
// drives the NIC model's offered load, and measures round-trip latency
// from embedded timestamps, as the paper's generator does.
package pktgen

import (
	"math"
	"sync"

	"packetshader/internal/hw/nic"
	"packetshader/internal/packet"
	"packetshader/internal/route"
	"packetshader/internal/sim"
)

var (
	genSrcMAC = packet.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	genDstMAC = packet.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
)

// UDP4Source generates IPv4/UDP frames. If Table is non-empty,
// destination addresses are drawn by picking a table prefix and
// randomizing its host bits, so every packet hits the FIB ("looks up a
// different entry for every packet"); otherwise destinations are
// uniformly random 32-bit addresses.
type UDP4Source struct {
	Size  int
	Seed  uint64
	Table []route.Entry
	// Stamp embeds the generation timestamp in the payload when the
	// frame has room (latency experiments).
	Stamp bool

	// tmpl is the prebuilt frame template, constructed lazily under
	// once: sources are shared by every RX queue's fetch proc, and
	// sync.Once-built state stays read-only across procs.
	once sync.Once
	tmpl *packet.UDP4Template
}

// fillBlock bounds the stack scratch FillBatch carries between its two
// passes; a fetch is at most a chunk, so a handful of blocks at worst.
const fillBlock = 64

// Fill implements nic.FrameSource: the one-packet case of FillBatch.
func (s *UDP4Source) Fill(b *packet.Buf, port, queue int, seq uint64) {
	s.once.Do(s.init)
	s.render(b, s.draw(port, queue, seq))
}

// FillBatch implements nic.BatchSource in two passes per block. Pass 1
// draws every packet's random values and reads its table entry: the
// reads are independent, so their cache misses overlap instead of each
// stalling the render behind it. Pass 2 renders, hashes and stamps. The
// scratch lives on the stack: sources are shared by every RX queue's
// fetch proc and must stay read-only across procs.
func (s *UDP4Source) FillBatch(bufs []*packet.Buf, port, queue int, seq uint64) {
	s.once.Do(s.init)
	var d [fillBlock]draw4
	for len(bufs) > 0 {
		n := min(len(bufs), fillBlock)
		for i := 0; i < n; i++ {
			d[i] = s.draw(port, queue, seq+uint64(i))
		}
		for i, b := range bufs[:n] {
			s.render(b, d[i])
		}
		bufs, seq = bufs[n:], seq+uint64(n)
	}
}

func (s *UDP4Source) init() {
	s.tmpl = packet.NewUDP4Template(s.Size, genSrcMAC, genDstMAC)
}

// draw4 is what pass 1 hands pass 2 for one packet: the random word
// the source address and ports come from, and the destination address.
type draw4 struct {
	r2  uint64
	dst packet.IPv4Addr
}

// draw is pass 1 for one packet.
func (s *UDP4Source) draw(port, queue int, seq uint64) draw4 {
	r := sim.SplitMix64(s.Seed ^ uint64(port)<<48 ^ uint64(queue)<<40 ^ seq)
	r2 := sim.SplitMix64(r)
	if len(s.Table) == 0 {
		return draw4{r2, packet.IPv4Addr(uint32(r))}
	}
	e := &s.Table[int(r%uint64(len(s.Table)))]
	host := uint32(r2) &^ e.Prefix.Mask()
	return draw4{r2, packet.IPv4Addr(uint32(e.Prefix.Addr) | host)}
}

// render is pass 2 for one packet.
func (s *UDP4Source) render(b *packet.Buf, d draw4) {
	src := packet.IPv4Addr(uint32(d.r2 >> 32))
	sp, dp := uint16(d.r2>>16), uint16(d.r2)
	b.Reset(s.tmpl.Size())
	s.tmpl.Render(b.Data, src, d.dst, sp, dp)
	b.Hash = nic.RSSHashIPv4(nic.DefaultRSSKey[:], uint32(src), uint32(d.dst), sp, dp)
	if s.Stamp {
		packet.SetTimestamp(b.Data, int64(b.GenAt))
	}
}

// UDP6Source generates IPv6/UDP frames with destinations drawn from an
// IPv6 table (or uniformly random when Table is empty).
type UDP6Source struct {
	Size  int
	Seed  uint64
	Table []route.Entry6

	once sync.Once
	tmpl *packet.UDP6Template
}

// Fill implements nic.FrameSource: the one-packet case of FillBatch.
func (s *UDP6Source) Fill(b *packet.Buf, port, queue int, seq uint64) {
	s.once.Do(s.init)
	s.render(b, s.draw(port, queue, seq))
}

// FillBatch implements nic.BatchSource, in the two passes of
// UDP4Source.FillBatch.
func (s *UDP6Source) FillBatch(bufs []*packet.Buf, port, queue int, seq uint64) {
	s.once.Do(s.init)
	var d [fillBlock]draw6
	for len(bufs) > 0 {
		n := min(len(bufs), fillBlock)
		for i := 0; i < n; i++ {
			d[i] = s.draw(port, queue, seq+uint64(i))
		}
		for i, b := range bufs[:n] {
			s.render(b, d[i])
		}
		bufs, seq = bufs[n:], seq+uint64(n)
	}
}

func (s *UDP6Source) init() {
	s.tmpl = packet.NewUDP6Template(s.Size, genSrcMAC, genDstMAC)
}

// draw6 is what pass 1 hands pass 2 for one IPv6 packet.
type draw6 struct {
	r, r3 uint64
	dst   packet.IPv6Addr
}

func (s *UDP6Source) draw(port, queue int, seq uint64) draw6 {
	r := sim.SplitMix64(s.Seed ^ uint64(port)<<48 ^ uint64(queue)<<40 ^ seq)
	r2 := sim.SplitMix64(r)
	r3 := sim.SplitMix64(r2)
	if len(s.Table) == 0 {
		return draw6{r, r3, packet.IPv6AddrFromParts(r2, r3)}
	}
	e := &s.Table[int(r%uint64(len(s.Table)))]
	mh, ml := route.Mask6(e.Prefix6.Len)
	return draw6{r, r3, packet.IPv6AddrFromParts(e.Prefix6.Hi|(r2&^mh), e.Prefix6.Lo|(r3&^ml))}
}

func (s *UDP6Source) render(b *packet.Buf, d draw6) {
	src := packet.IPv6AddrFromParts(0x2001_0db8_0000_0000|d.r>>32, d.r)
	b.Reset(s.tmpl.Size())
	s.tmpl.Render(b.Data, src, d.dst, uint16(d.r3>>16), uint16(d.r3))
}

// ---------------------------------------------------------------------------
// Latency measurement.
// ---------------------------------------------------------------------------

// LatencySink accumulates round-trip latency from Buf.GenAt to TX
// completion. Attach Observe to nic.TxPort.OnComplete.
type LatencySink struct {
	Count uint64
	sum   float64
	min   sim.Duration
	max   sim.Duration
	// hist buckets latencies at 10µs granularity up to 10ms for
	// percentile estimation.
	hist [1000]uint64
}

// NewLatencySink returns an empty sink.
func NewLatencySink() *LatencySink {
	return &LatencySink{min: math.MaxInt64}
}

// Observe records one packet's completion.
func (l *LatencySink) Observe(b *packet.Buf, at sim.Time) {
	if b.GenAt == 0 {
		return
	}
	d := sim.Duration(at - b.GenAt)
	if d < 0 {
		return
	}
	l.Count++
	l.sum += d.Seconds()
	if d < l.min {
		l.min = d
	}
	if d > l.max {
		l.max = d
	}
	bucket := int(d / (10 * sim.Microsecond))
	if bucket >= len(l.hist) {
		bucket = len(l.hist) - 1
	}
	l.hist[bucket]++
}

// MeanMicros returns the average latency in microseconds.
func (l *LatencySink) MeanMicros() float64 {
	if l.Count == 0 {
		return 0
	}
	return l.sum / float64(l.Count) * 1e6
}

// MinMicros and MaxMicros return the extremes in microseconds.
func (l *LatencySink) MinMicros() float64 {
	if l.Count == 0 {
		return 0
	}
	return l.min.Microseconds()
}

// MaxMicros returns the maximum observed latency.
func (l *LatencySink) MaxMicros() float64 { return l.max.Microseconds() }

// PercentileMicros returns an upper bound of the q-quantile (0<q<1)
// from the 10µs histogram.
func (l *LatencySink) PercentileMicros(q float64) float64 {
	if l.Count == 0 {
		return 0
	}
	target := uint64(q * float64(l.Count))
	var cum uint64
	for i, c := range l.hist {
		cum += c
		if cum >= target {
			return float64(i+1) * 10
		}
	}
	return float64(len(l.hist)) * 10
}
