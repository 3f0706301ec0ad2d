package nic

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"packetshader/internal/hw/pcie"
	"packetshader/internal/model"
	"packetshader/internal/packet"
	"packetshader/internal/sim"
)

// TestToeplitzRSSSpecVectors checks the hash against the verification
// suite published with Microsoft's RSS specification.
func TestToeplitzRSSSpecVectors(t *testing.T) {
	key := DefaultRSSKey[:]
	ip := func(a, b, c, d byte) uint32 {
		return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
	}
	cases := []struct {
		srcIP, dstIP     uint32
		srcPort, dstPort uint16
		want             uint32
	}{
		{ip(66, 9, 149, 187), ip(161, 142, 100, 80), 2794, 1766, 0x51ccc178},
		{ip(199, 92, 111, 2), ip(65, 69, 140, 83), 14230, 4739, 0xc626b0ea},
		{ip(24, 19, 198, 95), ip(12, 22, 207, 184), 12898, 38024, 0x5c2b394a},
		{ip(38, 27, 205, 30), ip(209, 142, 163, 6), 48228, 2217, 0xafc7327f},
		{ip(153, 39, 163, 191), ip(202, 188, 127, 2), 44251, 1303, 0x10e828a2},
	}
	for i, c := range cases {
		got := RSSHashIPv4(key, c.srcIP, c.dstIP, c.srcPort, c.dstPort)
		if got != c.want {
			t.Errorf("vector %d: hash = %#08x, want %#08x", i, got, c.want)
		}
	}
}

func TestToeplitzDistribution(t *testing.T) {
	key := DefaultRSSKey[:]
	const queues = 8
	var counts [queues]int
	const n = 8192
	for i := 0; i < n; i++ {
		h := RSSHashIPv4(key, uint32(i)*2654435761, uint32(i)^0xdeadbeef,
			uint16(i*7), uint16(i*13))
		counts[h%queues]++
	}
	for q, c := range counts {
		if c < n/queues/2 || c > n/queues*2 {
			t.Errorf("queue %d got %d of %d (poor spread)", q, c, n)
		}
	}
}

// TestToeplitzLUTMatchesBitSerial is the differential contract of the
// table-driven hash: for random keys, input lengths and tuples, the LUT
// path must equal the bit-serial reference bit for bit.
func TestToeplitzLUTMatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 64; trial++ {
		key := make([]byte, 40)
		rng.Read(key)
		for _, n := range []int{1, 4, 12, 16, 36} {
			lut := NewToeplitzLUT(key, n)
			in := make([]byte, n)
			for round := 0; round < 32; round++ {
				rng.Read(in)
				if got, want := lut.Hash(in), ToeplitzHash(key, in); got != want {
					t.Fatalf("key %x input %x: LUT %#08x, bit-serial %#08x",
						key, in, got, want)
				}
			}
		}
	}
}

// TestRSSHashIPv4LUTMatchesBitSerial pins the per-packet fast path:
// RSSHashIPv4Default, and RSSHashIPv4 with the default key, both by
// table, against the bit-serial reference over random tuples, plus a
// non-default key exercising the fallback.
func TestRSSHashIPv4LUTMatchesBitSerial(t *testing.T) {
	ref := func(key []byte, srcIP, dstIP uint32, sp, dp uint16) uint32 {
		var in [12]byte
		binary.BigEndian.PutUint32(in[0:4], srcIP)
		binary.BigEndian.PutUint32(in[4:8], dstIP)
		binary.BigEndian.PutUint16(in[8:10], sp)
		binary.BigEndian.PutUint16(in[10:12], dp)
		return ToeplitzHash(key, in[:])
	}
	rng := rand.New(rand.NewSource(7))
	altKey := make([]byte, 40)
	rng.Read(altKey)
	for i := 0; i < 4096; i++ {
		srcIP, dstIP := rng.Uint32(), rng.Uint32()
		sp, dp := uint16(rng.Uint32()), uint16(rng.Uint32())
		want := ref(DefaultRSSKey[:], srcIP, dstIP, sp, dp)
		if got := RSSHashIPv4(DefaultRSSKey[:], srcIP, dstIP, sp, dp); got != want {
			t.Fatalf("default key tuple %d: got %#08x, want %#08x", i, got, want)
		}
		if got := RSSHashIPv4Default(srcIP, dstIP, sp, dp); got != want {
			t.Fatalf("RSSHashIPv4Default tuple %d: got %#08x, want %#08x", i, got, want)
		}
		if got, want := RSSHashIPv4(altKey, srcIP, dstIP, sp, dp),
			ref(altKey, srcIP, dstIP, sp, dp); got != want {
			t.Fatalf("alt key tuple %d: got %#08x, want %#08x", i, got, want)
		}
	}
	// Edge tuples: all-zero and all-ones inputs.
	for _, v := range []uint32{0, 0xffffffff} {
		p := uint16(v)
		want := ref(DefaultRSSKey[:], v, v, p, p)
		if got := RSSHashIPv4(DefaultRSSKey[:], v, v, p, p); got != want {
			t.Fatalf("edge tuple %#x: got %#08x, want %#08x", v, got, want)
		}
		if got := RSSHashIPv4Default(v, v, p, p); got != want {
			t.Fatalf("RSSHashIPv4Default edge tuple %#x: got %#08x, want %#08x", v, got, want)
		}
	}
}

func newQueue(env *sim.Env) (*RxQueue, *pcie.IOH) {
	ioh := pcie.NewIOH(env, 0)
	pool := packet.NewBufPool(2048)
	q := NewRxQueue(env, 0, 0, model.RxRingSize, pool, []*pcie.IOH{ioh})
	return q, ioh
}

type countingSource struct{ fills int }

// Fill writes seq into the frame's first four bytes, where seqOf reads
// it back.
func (s *countingSource) Fill(b *packet.Buf, port, queue int, seq uint64) {
	s.fills++
	binary.BigEndian.PutUint32(b.Data, uint32(seq))
}

func seqOf(b *packet.Buf) uint32 { return binary.BigEndian.Uint32(b.Data) }

func TestRxQueueFluidArrival(t *testing.T) {
	env := sim.NewEnv()
	q, _ := newQueue(env)
	src := &countingSource{}
	q.SetOffered(1e6, 64, src) // 1 Mpps
	var got []*packet.Buf
	env.Go("reader", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond) // 100 packets accumulate
		got = q.Fetch(p, 1000, nil)
	})
	env.Run(0)
	if len(got) < 98 || len(got) > 102 {
		t.Fatalf("fetched %d packets after 100us at 1Mpps, want ≈100", len(got))
	}
	if src.fills != len(got) {
		t.Errorf("source filled %d, fetched %d", src.fills, len(got))
	}
	// Sequence numbers must be consecutive and metadata set.
	for i, b := range got {
		if seqOf(b) != uint32(i) {
			t.Fatalf("packet %d has seq %d", i, seqOf(b))
		}
		if b.Size() != 64 || b.Port != 0 {
			t.Fatalf("bad buf metadata: %+v", b)
		}
	}
	// Timestamps nondecreasing, all ≤ fetch time.
	for i := 1; i < len(got); i++ {
		if got[i].GenAt < got[i-1].GenAt {
			t.Fatal("arrival timestamps not monotonic")
		}
	}
}

func TestRxQueueRingOverflowDrops(t *testing.T) {
	env := sim.NewEnv()
	q, _ := newQueue(env)
	q.SetOffered(10e6, 64, nil)
	env.Go("idle", func(p *sim.Proc) {
		p.Sleep(1 * sim.Millisecond) // 10k arrivals into a 2048 ring
		if q.Available() != model.RxRingSize {
			t.Errorf("available = %d, want full ring", q.Available())
		}
	})
	env.Run(0)
	if q.Stats.Dropped < 7000 {
		t.Errorf("dropped = %d, want ≈8k", q.Stats.Dropped)
	}
}

func TestRxFetchChargesIOH(t *testing.T) {
	env := sim.NewEnv()
	q, ioh := newQueue(env)
	q.SetOffered(14.2e6, 64, nil)
	env.Go("reader", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond)
		q.Fetch(p, 512, nil)
		p.Sleep(sim.Millisecond) // the booked DMA runs
	})
	env.Run(0)
	if ioh.UpBusy() == 0 {
		t.Error("RX DMA did not occupy the IOH")
	}
}

func TestRxFetchEmptyReturnsNil(t *testing.T) {
	env := sim.NewEnv()
	q, _ := newQueue(env)
	env.Go("reader", func(p *sim.Proc) {
		if got := q.Fetch(p, 64, nil); got != nil {
			t.Errorf("fetched %d from idle queue", len(got))
		}
	})
	env.Run(0)
}

func TestWaitForPacketsInterruptModeration(t *testing.T) {
	env := sim.NewEnv()
	q, _ := newQueue(env)
	q.SetOffered(1e5, 64, nil) // 10us between packets
	var woke sim.Time
	env.Go("reader", func(p *sim.Proc) {
		if !q.WaitForPackets(p) {
			t.Error("WaitForPackets returned false with offered load")
		}
		woke = p.Now()
	})
	env.Run(0)
	// Next arrival at 10us + 30us moderation.
	want := sim.Time(10*sim.Microsecond) + sim.Time(q.Moderation)
	if woke < want*9/10 || woke > want*11/10 {
		t.Errorf("woke at %v, want ≈%v (arrival + moderation)", woke, want)
	}
	if q.Available() < 1 {
		t.Error("woke with no packet available")
	}
}

func TestWaitForPacketsNoLoad(t *testing.T) {
	env := sim.NewEnv()
	q, _ := newQueue(env)
	env.Go("reader", func(p *sim.Proc) {
		if q.WaitForPackets(p) {
			t.Error("WaitForPackets returned true on a dead queue")
		}
	})
	env.Run(0)
}

func TestTxPortLineRate(t *testing.T) {
	env := sim.NewEnv()
	ioh := pcie.NewIOH(env, 0)
	tx := NewTxPort(env, 0, model.TxRingSize, []*pcie.IOH{ioh})
	pool := packet.NewBufPool(2048)
	// Saturate: offer 2 Mpps of 1514B (≈24.6 Gbps offered at wire) and
	// count completions over 10ms — must clamp near 10 Gbps.
	env.Go("sender", func(p *sim.Proc) {
		for p.Now() < sim.Time(10*sim.Millisecond) {
			var bufs []*packet.Buf
			for i := 0; i < 64; i++ {
				bufs = append(bufs, pool.Get(1514))
			}
			tx.Transmit(bufs)
			p.Sleep(32 * sim.Microsecond) // 2 Mpps offered
		}
	})
	env.Run(sim.Time(10 * sim.Millisecond))
	gbps := tx.Delivered().Seconds() / 10e-3 * 10 // delivered line fraction × 10G
	if gbps < 9.5 || gbps > 10.1 {
		t.Errorf("TX throughput = %.2f Gbps, want ≈10 (line rate)", gbps)
	}
	if tx.Stats.Dropped == 0 {
		t.Error("overloaded TX ring never dropped")
	}
}

func TestTxOnCompleteObservesPackets(t *testing.T) {
	env := sim.NewEnv()
	ioh := pcie.NewIOH(env, 0)
	tx := NewTxPort(env, 0, model.TxRingSize, []*pcie.IOH{ioh})
	pool := packet.NewBufPool(2048)
	var seen []sim.Time
	tx.OnComplete = func(b *packet.Buf, at sim.Time) { seen = append(seen, at) }
	env.Go("sender", func(p *sim.Proc) {
		tx.Transmit([]*packet.Buf{pool.Get(64), pool.Get(64)})
	})
	env.Run(0)
	if len(seen) != 2 {
		t.Fatalf("observed %d completions", len(seen))
	}
	// Completions spaced by at least one wire time.
	if sim.Duration(seen[1]-seen[0]) < model.WireTime(64) {
		t.Error("completions not serialized at wire rate")
	}
	if pool.FreeCount() != 2 {
		t.Errorf("bufs not released: free = %d", pool.FreeCount())
	}
}

func TestNodeCrossingDMAChargesBothIOHs(t *testing.T) {
	env := sim.NewEnv()
	ioh0 := pcie.NewIOH(env, 0)
	ioh1 := pcie.NewIOH(env, 1)
	pool := packet.NewBufPool(2048)
	q := NewRxQueue(env, 0, 0, model.RxRingSize, pool, []*pcie.IOH{ioh0, ioh1})
	q.SetOffered(1e6, 64, nil)
	env.Go("reader", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		q.Fetch(p, 128, nil)
		p.Sleep(sim.Millisecond) // the booked DMA runs
	})
	env.Run(0)
	if ioh0.UpBusy() == 0 || ioh1.UpBusy() == 0 {
		t.Error("node-crossing DMA must occupy both IOHs (§4.5)")
	}
	if math.Abs(float64(ioh0.UpBusy()-ioh1.UpBusy())) > float64(sim.Nanosecond) {
		t.Error("both hubs should carry the same crossing traffic")
	}
}

// TestRateChangeMidRun: the fluid queue must account arrivals correctly
// across SetOffered transitions (failure injection: bursty sources).
func TestRateChangeMidRun(t *testing.T) {
	env := sim.NewEnv()
	q, _ := newQueue(env)
	q.SetOffered(1e6, 64, nil) // 1 Mpps
	var first, second []*packet.Buf
	env.Go("driver", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond) // 100 packets at 1 Mpps
		first = q.Fetch(p, 1000, nil)
		q.SetOffered(10e6, 64, nil)    // burst to 10 Mpps
		p.Sleep(100 * sim.Microsecond) // 1000 packets
		second = q.Fetch(p, 2000, nil)
		q.SetOffered(0, 64, nil) // source pauses
		p.Sleep(1 * sim.Millisecond)
		if got := q.Fetch(p, 100, nil); len(got) > 1 {
			t.Errorf("paused source produced %d packets", len(got))
		}
	})
	env.Run(0)
	if len(first) < 98 || len(first) > 102 {
		t.Errorf("first window fetched %d, want ≈100", len(first))
	}
	if len(second) < 990 || len(second) > 1010 {
		t.Errorf("second window fetched %d, want ≈1000", len(second))
	}
}

// TestFluidConservationProperty: arrivals = fetched + dropped + waiting
// for any rate/fetch interleaving.
func TestFluidConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := sim.NewEnv()
		q, _ := newQueue(env)
		var fetched uint64
		env.Go("driver", func(p *sim.Proc) {
			for step := 0; step < 30; step++ {
				q.SetOffered(float64(rng.Intn(20))*1e6, 64, nil)
				p.Sleep(sim.Duration(rng.Intn(200)) * sim.Microsecond)
				got := q.Fetch(p, rng.Intn(512), nil)
				fetched += uint64(len(got))
				for _, b := range got {
					b.Release()
				}
			}
		})
		env.Run(0)
		waiting := uint64(q.Available())
		// The fluid model accumulates fractional packets; allow one
		// packet of rounding slop per rate change.
		total := fetched + q.Stats.Dropped + waiting
		arrivedLow := q.Stats.Packets + q.Stats.Dropped // fetched stats == fetched
		_ = arrivedLow
		return total >= fetched && q.Stats.Packets == fetched
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRxQueueFractionalDropAccounting is the regression test for the
// drop-accounting bug: when update() runs so often that each step
// overflows the ring by less than one packet, truncating the overflow
// undercounts drops (to zero, in the limit). The fractional remainder
// must accumulate so that a long overloaded run matches the closed-form
// expectation drops = offered - capacity.
func TestRxQueueFractionalDropAccounting(t *testing.T) {
	env := sim.NewEnv()
	q, _ := newQueue(env)
	const rate = 1.5e6 // 1.5 Mpps into a full ring
	q.SetOffered(rate, 64, nil)
	const step = 100 * sim.Nanosecond // 0.00015 packets per step
	const window = 20 * sim.Millisecond
	env.Go("poller", func(p *sim.Proc) {
		for p.Now() < sim.Time(window) {
			q.Available() // forces update() at every step
			p.Sleep(step)
		}
	})
	env.Run(0)
	offered := rate * sim.Duration(window).Seconds() // 30000 packets
	want := uint64(offered) - uint64(model.RxRingSize)
	// Allow one packet of slop for the fractional in-ring remainder.
	if q.Stats.Dropped < want-1 || q.Stats.Dropped > want+1 {
		t.Errorf("dropped = %d, want %d (offered %0.f - ring %d)",
			q.Stats.Dropped, want, offered, model.RxRingSize)
	}
}

// TestRxQueueDropConservationUnderFetch drives an overloaded queue with
// a consumer that fetches less than the offered rate and checks exact
// conservation: offered = fetched + dropped + waiting (±1 fractional).
func TestRxQueueDropConservationUnderFetch(t *testing.T) {
	env := sim.NewEnv()
	q, _ := newQueue(env)
	const rate = 3.7e6
	q.SetOffered(rate, 64, nil)
	var fetched uint64
	env.Go("reader", func(p *sim.Proc) {
		for p.Now() < sim.Time(10*sim.Millisecond) {
			got := q.Fetch(p, 37, nil) // ~2.3 Mpps consumed: overload
			fetched += uint64(len(got))
			for _, b := range got {
				b.Release()
			}
			p.Sleep(16 * sim.Microsecond)
		}
	})
	end := env.Run(0)
	q.Available() // final update at the end of the run
	offered := rate * sim.Duration(end).Seconds()
	got := float64(fetched + q.Stats.Dropped + uint64(q.Available()))
	if diff := offered - got; diff < 0 || diff > 2 {
		t.Errorf("conservation violated: offered %.2f, accounted %.0f (fetched %d dropped %d waiting %d)",
			offered, got, fetched, q.Stats.Dropped, q.Available())
	}
	if q.Stats.Dropped == 0 {
		t.Error("overloaded queue recorded no drops")
	}
}

func TestRxQueueCarrierDownStopsArrivals(t *testing.T) {
	env := sim.NewEnv()
	q, _ := newQueue(env)
	q.SetOffered(1e6, 64, nil) // 1 Mpps
	env.At(sim.Time(100*sim.Microsecond), func() { q.SetCarrier(false) })
	env.At(sim.Time(300*sim.Microsecond), func() { q.SetCarrier(true) })
	var avail int
	env.Go("reader", func(p *sim.Proc) {
		p.Sleep(400 * sim.Microsecond)
		avail = q.Available()
	})
	env.Run(0)
	// 100us up (≈100 pkts) + 200us down (0) + 100us up (≈100 pkts).
	if avail < 198 || avail > 202 {
		t.Errorf("available = %d after carrier gap, want ≈200", avail)
	}
	if q.Stats.Dropped != 0 {
		t.Errorf("carrier-down counted %d drops; the peer stops sending", q.Stats.Dropped)
	}
}

func TestRxQueueCarrierDownKeepsReaderAlive(t *testing.T) {
	env := sim.NewEnv()
	q, _ := newQueue(env)
	q.SetOffered(1e6, 64, nil)
	q.SetCarrier(false)
	d, ok := q.TimeToPacket()
	if !ok {
		t.Fatal("TimeToPacket reported dead queue during carrier-down; readers would retire")
	}
	if d != q.Moderation {
		t.Errorf("poll hint = %v, want moderation %v", d, q.Moderation)
	}
	var woke bool
	env.Go("reader", func(p *sim.Proc) {
		woke = q.WaitForPackets(p)
	})
	env.Run(0)
	if !woke {
		t.Error("WaitForPackets returned false during carrier-down")
	}
}

func TestRxQueueDropBurstCountsDrops(t *testing.T) {
	env := sim.NewEnv()
	q, _ := newQueue(env)
	q.SetOffered(1e6, 64, nil)
	q.DropBurst(200 * sim.Microsecond)
	var avail int
	env.Go("reader", func(p *sim.Proc) {
		p.Sleep(300 * sim.Microsecond)
		avail = q.Available()
	})
	env.Run(0)
	// 200us of arrivals dropped, the next 100us accumulates.
	if q.Stats.Dropped < 198 || q.Stats.Dropped > 202 {
		t.Errorf("dropped = %d in a 200us burst at 1Mpps, want ≈200", q.Stats.Dropped)
	}
	if avail < 98 || avail > 102 {
		t.Errorf("available = %d after burst, want ≈100", avail)
	}
}

func TestTxPortCarrierDownDropsWithoutBlocking(t *testing.T) {
	env := sim.NewEnv()
	ioh := pcie.NewIOH(env, 0)
	tx := NewTxPort(env, 0, 16, []*pcie.IOH{ioh})
	pool := packet.NewBufPool(2048)
	mkBufs := func(n int) []*packet.Buf {
		var bufs []*packet.Buf
		for i := 0; i < n; i++ {
			bufs = append(bufs, pool.Get(64))
		}
		return bufs
	}
	tx.SetCarrier(false)
	var blockedFor sim.Duration
	env.Go("sender", func(p *sim.Proc) {
		start := p.Now()
		// Far more than the 16-slot ring: must drop, not block.
		tx.TransmitBlocking(p, mkBufs(64))
		blockedFor = sim.Duration(p.Now() - start)
	})
	env.Run(0)
	if blockedFor != 0 {
		t.Errorf("TransmitBlocking blocked %v on a carrier-down port", blockedFor)
	}
	if tx.Stats.Dropped != 64 || tx.CarrierDrops != 64 {
		t.Errorf("drops = %d carrier = %d, want 64/64", tx.Stats.Dropped, tx.CarrierDrops)
	}
	if tx.Stats.Packets != 0 {
		t.Errorf("transmitted %d packets with no carrier", tx.Stats.Packets)
	}
	tx.SetCarrier(true)
	env.Go("sender2", func(p *sim.Proc) { tx.TransmitBlocking(p, mkBufs(8)) })
	env.Run(0)
	if tx.Stats.Packets != 8 {
		t.Errorf("after carrier-up transmitted %d, want 8", tx.Stats.Packets)
	}
	if tx.CarrierDrops != 64 {
		t.Errorf("carrier drops moved to %d after restore", tx.CarrierDrops)
	}
}

// batchRecorder is a BatchSource that records how Fetch called it.
type batchRecorder struct {
	countingSource
	calls []int    // len(bufs) per FillBatch call
	seqs  []uint64 // starting seq per call
}

func (s *batchRecorder) FillBatch(bufs []*packet.Buf, port, queue int, seq uint64) {
	s.calls = append(s.calls, len(bufs))
	s.seqs = append(s.seqs, seq)
	for i, b := range bufs {
		s.Fill(b, port, queue, seq+uint64(i))
	}
}

// TestFetchCallsFillBatchOncePerFetch: a BatchSource gets one call per
// fetch, covering exactly the Bufs that fetch appended (not the ones
// already in out), with the queue's running sequence number.
func TestFetchCallsFillBatchOncePerFetch(t *testing.T) {
	env := sim.NewEnv()
	q, _ := newQueue(env)
	src := &batchRecorder{}
	q.SetOffered(1e6, 64, src)
	var out []*packet.Buf
	env.Go("reader", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(50 * sim.Microsecond)
			out = q.Fetch(p, 40, out) // keeps appending to out
		}
	})
	env.Run(0)
	if len(src.calls) != 3 || len(out) != 120 {
		t.Fatalf("FillBatch calls %v for %d packets, want 3 calls of 40", src.calls, len(out))
	}
	for i, n := range src.calls {
		if n != 40 || src.seqs[i] != uint64(40*i) {
			t.Errorf("call %d: %d bufs from seq %d, want 40 from %d", i, n, src.seqs[i], 40*i)
		}
	}
	for i, b := range out {
		if seqOf(b) != uint32(i) || b.GenAt == 0 {
			t.Fatalf("packet %d: seq %d, GenAt %d (stamped before the fill?)", i, seqOf(b), b.GenAt)
		}
	}
}

// transmitPerPacket is Transmit as it was before it reserved per run:
// every admitted packet reserves its DMA on each hub of the path and
// then the wire, one packet at a time. It is the oracle that
// TestTransmitMatchesPerPacketOracle holds Transmit to.
func transmitPerPacket(t *TxPort, bufs []*packet.Buf) {
	if len(bufs) == 0 {
		return
	}
	if t.carrierDown {
		t.Stats.Dropped += uint64(len(bufs))
		t.CarrierDrops += uint64(len(bufs))
		for _, b := range bufs {
			b.Release()
		}
		return
	}
	t.reap()
	var batchWire sim.Duration
	var batchDone sim.Time
	var batchPkts int
	for _, b := range bufs {
		if t.pending >= t.ringCap {
			t.Stats.Dropped++
			b.Release()
			continue
		}
		wt := model.WireTime(b.Size())
		var dmaDone sim.Time
		for _, ioh := range t.dmaPath {
			if d := ioh.ScheduleDown(b.Size() + model.DMADescBytes); d > dmaDone {
				dmaDone = d
			}
		}
		done := t.wire.ScheduleAt(dmaDone, wt)
		t.Stats.Packets++
		t.Stats.Bytes += uint64(b.Size())
		t.pending++
		batchWire += wt
		batchDone = done
		batchPkts++
		if t.OnComplete != nil {
			t.OnComplete(b, done)
		}
		b.Release()
	}
	if batchPkts > 0 {
		t.completions.PushBack(completion{batchDone, batchWire, batchPkts})
	}
}

// spanLog records every span the hooks receive, in order.
type spanLog []string

func (l *spanLog) ServerBusy(s *sim.Server, start, end sim.Time) {
	*l = append(*l, fmt.Sprintf("%s#%d [%d, %d)", s.Name(), s.ID(), start, end))
}

// txCase is one shape of TX traffic for the oracle test.
type txCase struct {
	name     string
	hubs     int   // IOHs on the DMA path: 2 is NUMA-blind placement
	ringCap  int   // TX ring size
	sizes    []int // frame sizes the runs draw from
	maxRun   int   // longest run of one size
	maxBatch int   // largest Transmit
	maxGap   sim.Duration
	backlog  bool // every server starts behind, and RX DMA shares the hubs
	flaps    bool // the carrier goes down and up
}

// runTxCase drives one TX port with seeded batches through transmit and
// returns what can be observed of it: every completion (packet, time),
// after each batch the counters, ring occupancy, delivered wire time
// and every server's busy time and backlog, and, when hooked, the span
// sequence. It also returns the port, for what the case exercised.
func runTxCase(c txCase, seed uint64, hooked bool, transmit func(*TxPort, []*packet.Buf)) (obs []string, spans spanLog, tx *TxPort) {
	env := sim.NewEnv()
	defer env.Close()
	if hooked {
		env.SetHooks(&spans)
	}
	iohs := make([]*pcie.IOH, c.hubs)
	for i := range iohs {
		iohs[i] = pcie.NewIOH(env, i)
	}
	tx = NewTxPort(env, 0, c.ringCap, iohs)
	pool := packet.NewBufPool(2048)
	logf := func(format string, args ...any) { obs = append(obs, fmt.Sprintf(format, args...)) }
	tx.OnComplete = func(b *packet.Buf, at sim.Time) { logf("packet %d done at %d", seqOf(b), at) }
	draw := func(n int) int {
		r := sim.SplitMix64(seed)
		seed += sim.SplitMixGamma
		return int(r % uint64(n))
	}
	servers := func() {
		logf("wire busy %d backlog %d", tx.wire.BusyTime(), tx.wire.Backlog())
		for i, ioh := range iohs {
			// A zero-byte reservation charges nothing and returns when
			// the engine frees up.
			now := env.Now()
			logf("ioh%d up busy %d backlog %d down busy %d backlog %d", i,
				ioh.UpBusy(), ioh.ScheduleUp(0)-now, ioh.DownBusy(), ioh.ScheduleDown(0)-now)
		}
	}
	if c.backlog {
		for _, ioh := range iohs {
			ioh.ScheduleUp(1 + draw(1<<16))
			ioh.ScheduleDown(1 + draw(1<<16))
		}
		tx.wire.Schedule(sim.Duration(1 + draw(int(100*sim.Microsecond))))
	}
	env.Go("driver", func(p *sim.Proc) {
		var id uint32
		size, left := 0, 0
		for step := 0; step < 40; step++ {
			p.Sleep(sim.Duration(draw(int(c.maxGap))))
			if c.flaps && draw(6) == 0 {
				tx.SetCarrier(!tx.CarrierUp())
			}
			if c.backlog && c.hubs > 0 && draw(3) == 0 {
				iohs[draw(c.hubs)].ScheduleUp(64 + draw(8192))
			}
			bufs := make([]*packet.Buf, 1+draw(c.maxBatch))
			for i := range bufs {
				if left == 0 {
					size, left = c.sizes[draw(len(c.sizes))], 1+draw(c.maxRun)
				}
				left--
				bufs[i] = pool.Get(size)
				binary.BigEndian.PutUint32(bufs[i].Data, id)
				id++
			}
			transmit(tx, bufs)
			logf("step %d stats %+v carrier drops %d pending %d delivered %d",
				step, tx.Stats, tx.CarrierDrops, tx.Pending(), tx.Delivered())
			servers()
		}
		p.Sleep(sim.Millisecond)
		logf("drained: pending %d delivered %d free bufs %d", tx.Pending(), tx.Delivered(), pool.FreeCount())
		servers()
	})
	env.Run(0)
	return obs, spans, tx
}

// firstDiff returns the index of the first line where got and want
// differ, or -1 if they are equal.
func firstDiff(got, want []string) int {
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			return i
		}
	}
	return -1
}

// TestTransmitMatchesPerPacketOracle is the contract of run-based
// Transmit: on seeded random batches of every shape — mixed sizes and
// long runs, a ring near full, no hub, one and both hubs on the DMA
// path, every server already behind, a carrier going down — it
// completes the same packets at the same times, leaves the same
// counters, ring occupancy, delivered wire time and server busy times
// and backlogs as reserving packet by packet, and with hooks installed
// reports the same spans in the same order.
func TestTransmitMatchesPerPacketOracle(t *testing.T) {
	mixed := []int{60, 64, 65, 128, 577, 1000, 1514}
	cases := []txCase{
		{name: "mixed", hubs: 1, ringCap: model.TxRingSize, sizes: mixed, maxRun: 3, maxBatch: 300, maxGap: 40 * sim.Microsecond},
		{name: "long-runs", hubs: 1, ringCap: model.TxRingSize, sizes: []int{64, 1514}, maxRun: 200, maxBatch: 300, maxGap: 60 * sim.Microsecond},
		{name: "ring-near-full", hubs: 1, ringCap: 48, sizes: []int{64, 1514}, maxRun: 20, maxBatch: 100, maxGap: 3 * sim.Microsecond},
		{name: "no-hub", hubs: 0, ringCap: 256, sizes: mixed, maxRun: 40, maxBatch: 200, maxGap: 20 * sim.Microsecond},
		{name: "numa-blind", hubs: 2, ringCap: 256, sizes: mixed, maxRun: 40, maxBatch: 200, maxGap: 20 * sim.Microsecond, backlog: true},
		{name: "backlog", hubs: 1, ringCap: model.TxRingSize, sizes: mixed, maxRun: 60, maxBatch: 200, maxGap: 30 * sim.Microsecond, backlog: true},
		{name: "carrier", hubs: 1, ringCap: 128, sizes: mixed, maxRun: 30, maxBatch: 150, maxGap: 10 * sim.Microsecond, flaps: true},
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			var untraced []string
			for _, hooked := range []bool{false, true} {
				name := fmt.Sprintf("%s/seed%d/hooks=%v", c.name, seed, hooked)
				got, gotSpans, tx := runTxCase(c, seed, hooked, (*TxPort).Transmit)
				want, wantSpans, _ := runTxCase(c, seed, hooked, transmitPerPacket)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("%s: observation %d differs from the per-packet oracle:\n got:  %q\n want: %q",
						name, i, lineAt(got, i), lineAt(want, i))
				}
				if i := firstDiff(gotSpans, wantSpans); i >= 0 {
					t.Fatalf("%s: span %d differs from the per-packet oracle:\n got:  %q\n want: %q",
						name, i, lineAt(gotSpans, i), lineAt(wantSpans, i))
				}
				if hooked && len(gotSpans) == 0 {
					t.Fatalf("%s: hooks installed but no span reported", name)
				}
				ringDrops := tx.Stats.Dropped - tx.CarrierDrops
				if tx.Stats.Packets == 0 || c.ringCap < 100 && ringDrops == 0 || c.flaps && tx.CarrierDrops == 0 {
					t.Fatalf("%s: case does not exercise its paths: %+v, carrier drops %d", name, tx.Stats, tx.CarrierDrops)
				}
				if !hooked {
					untraced = got
				} else if i := firstDiff(got, untraced); i >= 0 {
					t.Fatalf("%s: installing hooks changed observation %d", name, i)
				}
			}
		}
	}
}

// lineAt returns lines[i], or a marker past the end.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end)"
}
