// Package pktgen is the traffic generator and sink of §6.1: it
// synthesizes UDP flows with random addresses and ports (so IP
// forwarding and OpenFlow look up a different entry for every packet),
// drives the NIC model's offered load, and measures round-trip latency
// from embedded timestamps, as the paper's generator does.
package pktgen

import (
	"math"
	"sync"

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

// fillBlock bounds the stack scratch FillBatch carries between its
// steps; a fetch is at most a chunk, so a handful of blocks at worst.
const fillBlock = 64

// Fill implements nic.FrameSource: FillBatch's four steps for one
// packet.
func (s *UDP4Source) Fill(b *packet.Buf, port, queue int, seq uint64) {
	s.once.Do(s.init)
	p := s.pick(port, queue, seq)
	var e route.Prefix
	if len(s.Table) > 0 {
		e = s.Table[p.i].Prefix
	}
	s.render(b, p.r2, s.compose(p, e))
}

// FillBatch implements nic.BatchSource in four steps per block of
// fillBlock packets. Pick draws every packet's random values and table
// index, reading no memory. Gather then loads every picked prefix in a
// loop that does nothing else: the table is larger than the host's L2
// and the loads are independent, so their cache misses overlap instead
// of each waiting behind the divide and the render of the packet
// before. Compose makes the destinations, and render writes and stamps
// the frames. The scratch lives on the stack: sources are shared by
// every RX queue's fetch proc and must stay read-only across procs.
func (s *UDP4Source) FillBatch(bufs []*packet.Buf, port, queue int, seq uint64) {
	s.once.Do(s.init)
	var (
		p   [fillBlock]pick4
		e   [fillBlock]route.Prefix
		dst [fillBlock]packet.IPv4Addr
	)
	tbl := s.Table
	for len(bufs) > 0 {
		n := min(len(bufs), fillBlock)
		for i := range n {
			p[i] = s.pick(port, queue, seq+uint64(i))
		}
		if len(tbl) > 0 {
			for i := range n {
				e[i] = tbl[p[i].i].Prefix
			}
		}
		for i := range n {
			dst[i] = s.compose(p[i], e[i])
		}
		for i, b := range bufs[:n] {
			s.render(b, p[i].r2, dst[i])
		}
		bufs, seq = bufs[n:], seq+uint64(n)
	}
}

func (s *UDP4Source) init() {
	s.tmpl = packet.NewUDP4Template(s.Size, genSrcMAC, genDstMAC)
}

// pick4 is one packet's random words and, with a table, the index of
// the prefix its destination is drawn from.
type pick4 struct {
	r, r2 uint64
	i     int
}

// pick draws one packet's random values; it reads no memory but s.
func (s *UDP4Source) pick(port, queue int, seq uint64) pick4 {
	r := sim.SplitMix64(s.Seed ^ uint64(port)<<48 ^ uint64(queue)<<40 ^ seq)
	p := pick4{r: r, r2: sim.SplitMix64(r)}
	if len(s.Table) > 0 {
		p.i = int(r % uint64(len(s.Table)))
	}
	return p
}

// compose returns the destination: the gathered prefix with random host
// bits, or a uniformly random address without a table.
func (s *UDP4Source) compose(p pick4, e route.Prefix) packet.IPv4Addr {
	if len(s.Table) == 0 {
		return packet.IPv4Addr(uint32(p.r))
	}
	return packet.IPv4Addr(uint32(e.Addr) | uint32(p.r2)&^e.Mask())
}

// render writes one frame; r2 gives its source address and ports.
func (s *UDP4Source) render(b *packet.Buf, r2 uint64, dst packet.IPv4Addr) {
	src := packet.IPv4Addr(uint32(r2 >> 32))
	sp, dp := uint16(r2>>16), uint16(r2)
	b.Reset(s.tmpl.Size())
	s.tmpl.Render(b.Data, src, dst, sp, dp)
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

// Fill implements nic.FrameSource: FillBatch's four steps for one
// packet.
func (s *UDP6Source) Fill(b *packet.Buf, port, queue int, seq uint64) {
	s.once.Do(s.init)
	p := s.pick(port, queue, seq)
	var e route.Prefix6
	if len(s.Table) > 0 {
		e = s.Table[p.i].Prefix6
	}
	s.render(b, p, s.compose(p, e))
}

// FillBatch implements nic.BatchSource, in the four steps of
// UDP4Source.FillBatch.
func (s *UDP6Source) FillBatch(bufs []*packet.Buf, port, queue int, seq uint64) {
	s.once.Do(s.init)
	var (
		p   [fillBlock]pick6
		e   [fillBlock]route.Prefix6
		dst [fillBlock]packet.IPv6Addr
	)
	tbl := s.Table
	for len(bufs) > 0 {
		n := min(len(bufs), fillBlock)
		for i := range n {
			p[i] = s.pick(port, queue, seq+uint64(i))
		}
		if len(tbl) > 0 {
			for i := range n {
				e[i] = tbl[p[i].i].Prefix6
			}
		}
		for i := range n {
			dst[i] = s.compose(p[i], e[i])
		}
		for i, b := range bufs[:n] {
			s.render(b, p[i], dst[i])
		}
		bufs, seq = bufs[n:], seq+uint64(n)
	}
}

func (s *UDP6Source) init() {
	s.tmpl = packet.NewUDP6Template(s.Size, genSrcMAC, genDstMAC)
}

// pick6 is UDP6Source's pick4: three random words and a table index.
type pick6 struct {
	r, r2, r3 uint64
	i         int
}

func (s *UDP6Source) pick(port, queue int, seq uint64) pick6 {
	r := sim.SplitMix64(s.Seed ^ uint64(port)<<48 ^ uint64(queue)<<40 ^ seq)
	r2 := sim.SplitMix64(r)
	p := pick6{r: r, r2: r2, r3: sim.SplitMix64(r2)}
	if len(s.Table) > 0 {
		p.i = int(r % uint64(len(s.Table)))
	}
	return p
}

func (s *UDP6Source) compose(p pick6, e route.Prefix6) packet.IPv6Addr {
	if len(s.Table) == 0 {
		return packet.IPv6AddrFromParts(p.r2, p.r3)
	}
	mh, ml := route.Mask6(e.Len)
	return packet.IPv6AddrFromParts(e.Hi|(p.r2&^mh), e.Lo|(p.r3&^ml))
}

func (s *UDP6Source) render(b *packet.Buf, p pick6, dst packet.IPv6Addr) {
	src := packet.IPv6AddrFromParts(0x2001_0db8_0000_0000|p.r>>32, p.r)
	b.Reset(s.tmpl.Size())
	s.tmpl.Render(b.Data, src, dst, uint16(p.r3>>16), uint16(p.r3))
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
// from the 10µs histogram: the bucket holding the ceil(q·Count)-th
// smallest sample (at least the first).
func (l *LatencySink) PercentileMicros(q float64) float64 {
	if l.Count == 0 {
		return 0
	}
	target := max(1, uint64(math.Ceil(q*float64(l.Count))))
	var cum uint64
	for i, c := range l.hist {
		cum += c
		if cum >= target {
			return float64(i+1) * 10
		}
	}
	return float64(len(l.hist)) * 10
}
