package main

import (
	"runtime"
	"time"

	"packetshader/internal/ctrl"
	"packetshader/internal/hw/gpu"
	"packetshader/internal/hw/nic"
	"packetshader/internal/hw/pcie"
	"packetshader/internal/ipsec"
	"packetshader/internal/model"
	"packetshader/internal/packet"
	"packetshader/internal/pktgen"
	"packetshader/internal/route"
	"packetshader/internal/sim"

	lookupv4 "packetshader/internal/lookup/ipv4"
)

// The micro-drivers price one call into each layer's public functions,
// stand-alone, on inputs made from the seed. They are the same on every
// workload: a property of the layer, used to apportion the part of a
// window no decorator can see as calls x ns-per-call.

// sink keeps results the drivers compute alive so the calls are not
// optimised away.
var sink uint64

// perOp runs fn (which performs ops operations) three times and returns
// the median wall time per operation in ns.
func perOp(ops int, fn func()) float64 {
	xs := make([]float64, 3)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(xs)
}

// calALU is a fixed xorshift-multiply loop: it reads no memory, so it
// says how fast the core is running right now.
func calALU() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 4<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x *= 0x2545f4914f6cdd1d
	}
	sink += x
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// calTable is the 32 MiB table calMem reads from. It stays allocated for
// the whole run and is part of the live heap every pass reports.
var calTable = func() []uint32 {
	t := make([]uint32, calTableBytes/4)
	for i := range t {
		t[i] = uint32(i) * 2654435761
	}
	return t
}()

const calTableBytes = 32 << 20

// calRefMs is what calMem reads on the build host when it is quiet: the
// reference memory speed the two gated host times are reported at.
const calRefMs = 15.0

// calMem does 2^20 random reads in the table; on a shared host this is
// the number that moves when a neighbour is using the memory system.
func calMem() float64 {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	var sum uint32
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += calTable[x%uint64(len(calTable))]
	}
	sink += uint64(sum)
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

type noopSource struct{}

func (noopSource) Fill(*packet.Buf, int, int, uint64) {}

// microDrivers runs every stand-alone driver and returns its metrics.
// sz sizes the routing table (the full BGP table in a real run) and
// scales down every driver's operation count.
func microDrivers(seed int64, sz sizes) map[string]float64 {
	m := map[string]float64{}
	runtime.GOMAXPROCS(1) // as the serial workloads run
	div := sz.microDiv
	microPacket(m, seed, sz.prefixes, div)
	microIPsec(m, div)
	microHW(m, div)
	microSim(m, div)
	return m
}

// microPacket covers packet, lookup/ipv4 and the Toeplitz hash: all run
// over frames the workload's own source generates.
func microPacket(m map[string]float64, seed int64, prefixes, div int) {
	t0 := time.Now()
	entries := route.GenerateBGPTable(prefixes, 64, seed)
	tbl, err := lookupv4.Build(entries)
	m["lookup4.build_s"] = time.Since(t0).Seconds()
	if err != nil {
		panic(err)
	}

	n := 4096 / div
	src := &pktgen.UDP4Source{Size: 64, Seed: uint64(seed), Table: entries}
	pool := packet.NewBufPool(2048)
	frames := make([][]byte, n)
	addrs := make([]packet.IPv4Addr, n)
	var d packet.Decoder
	for i := range frames {
		b := pool.Get(64)
		src.Fill(b, i%model.NumPorts, 0, uint64(i))
		frames[i] = b.Data
		if err := d.DecodeFast(b.Data); err != nil {
			panic(err)
		}
		addrs[i] = d.IPv4.Dst
	}
	m["packet.decode_ns"] = perOp(16*n, func() {
		for r := 0; r < 16; r++ {
			for _, f := range frames {
				if d.DecodeFast(f) == nil {
					sink += uint64(d.IPv4.Dst)
				}
			}
		}
	})
	tmpl := packet.NewUDP4Template(64, packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2})
	buf := make([]byte, 2048)
	m["packet.render_ns"] = perOp(16*n, func() {
		for r := 0; r < 16; r++ {
			for i, a := range addrs {
				f := tmpl.Render(buf, a^0x5a5a5a5a, a, uint16(i), uint16(r))
				sink += uint64(f[len(f)-1])
			}
		}
	})
	m["nic.toeplitz_ns"] = perOp(16*n, func() {
		for r := 0; r < 16; r++ {
			for i, a := range addrs {
				sink += uint64(nic.RSSHashIPv4(nic.DefaultRSSKey[:], uint32(a)^0x5a5a5a5a, uint32(a), uint16(i), uint16(r)))
			}
		}
	})
	hops := make([]uint16, n)
	m["lookup4.lookup_ns"] = perOp(64*n, func() {
		for r := 0; r < 64; r++ {
			tbl.LookupBatch(addrs, hops)
			sink += uint64(hops[r%n])
		}
	})

	dyn, err := lookupv4.NewDynamic(entries)
	if err != nil {
		panic(err)
	}
	fib := &ctrl.DynamicFIB{T: dyn}
	victims := churnVictims(entries)
	del := make([]ctrl.RouteUpdate, len(victims))
	add := make([]ctrl.RouteUpdate, len(victims))
	for i, e := range victims {
		del[i] = ctrl.RouteUpdate{Act: ctrl.ActDel, Prefix: e.Prefix}
		add[i] = ctrl.RouteUpdate{Act: ctrl.ActAdd, Prefix: e.Prefix, NextHop: e.NextHop}
	}
	var cells, updates uint64
	m["lookup4.update_ns"] = perOp(8*2*len(victims), func() {
		for r := 0; r < 8; r++ {
			for _, batch := range [][]ctrl.RouteUpdate{del, add} {
				c, err := fib.ApplyRoutes(batch)
				if err != nil {
					panic(err)
				}
				cells += c
				updates += uint64(len(batch))
			}
		}
	})
	m["lookup4.cells_per_update"] = float64(cells) / float64(updates)
}

func microIPsec(m map[string]float64, div int) {
	sa := ipsec.NewSA(0x1000, 0xabcd0000, make([]byte, 16), make([]byte, 20), 0x0A000001, 0x0AFF0001)
	key := make([]byte, 16)
	msg := make([]byte, (16<<10)/div)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	aes := ipsec.NewAES(key)
	out := make([]byte, len(msg))
	m["ipsec.aes_ns_per_byte"] = perOp(len(msg), func() {
		aes.CTR(out, msg, 1, 2)
		sink += uint64(out[0])
	})
	hm := ipsec.NewHMACSHA1(key)
	m["ipsec.hmac_ns_per_byte"] = perOp(4*len(msg), func() {
		for r := 0; r < 4; r++ {
			icv := hm.ICV(msg)
			sink += uint64(icv[0])
		}
	})
	inner := msg[:64-packet.EthHdrLen]
	scratch := make([]byte, 2048)
	encaps := 512 / div
	m["ipsec.encap64_ns"] = perOp(encaps, func() {
		for r := 0; r < encaps; r++ {
			o, err := sa.Encap(scratch[:0], inner)
			if err != nil {
				panic(err)
			}
			sink += uint64(o[len(o)-1])
		}
	})
}

// microHW covers hw/nic, hw/pcie and hw/gpu on a bare environment.
func microHW(m map[string]float64, div int) {
	n := (1 << 16) / div
	// One RX queue at 64 B line rate, one proc looping Fetch(64).
	m["nic.fetch_ns"] = perOp(n, func() {
		env := sim.NewEnv()
		defer env.Close()
		pool := packet.NewBufPool(2048)
		q := nic.NewRxQueue(env, 0, 0, model.RxRingSize, pool, []*pcie.IOH{pcie.NewIOH(env, 0)})
		q.SetOffered(10e9/float64(model.WireBytes(64)*8), 64, noopSource{})
		env.Go("fetch", func(p *sim.Proc) {
			var out []*packet.Buf
			for got := 0; got < n; got += len(out) {
				if !q.WaitForPackets(p) {
					return
				}
				out = q.Fetch(p, 64, out[:0])
				for _, b := range out {
					b.Release()
				}
			}
		})
		env.Run(0)
	})
	m["nic.transmit_ns"] = perOp(n, func() {
		env := sim.NewEnv()
		defer env.Close()
		pool := packet.NewBufPool(2048)
		tx := nic.NewTxPort(env, 0, model.RxRingSize, []*pcie.IOH{pcie.NewIOH(env, 0)})
		env.Go("tx", func(p *sim.Proc) {
			bufs := make([]*packet.Buf, 64)
			for sent := 0; sent < n; sent += len(bufs) {
				for i := range bufs {
					bufs[i] = pool.Get(64)
				}
				tx.TransmitBlocking(p, bufs)
			}
		})
		env.Run(0)
		sink += tx.Stats.Packets
	})
	m["pcie.ioh_ns"] = perOp(2*n, func() {
		ioh := pcie.NewIOH(sim.NewEnv(), 0)
		for i := 0; i < n; i++ {
			sink += uint64(ioh.ScheduleUp(64+i%1024) + ioh.ScheduleDown(64+i%1024))
		}
	})
	launches := 4096 / div
	m["gpu.launch_ns"] = perOp(launches, func() {
		env := sim.NewEnv()
		defer env.Close()
		dev := gpu.New(env, pcie.NewIOH(env, 0), 0)
		env.Go("master", func(p *sim.Proc) {
			for i := 0; i < launches; i++ {
				dev.Launch(p, &gpu.KernelIPv4, 256, 1024, 512, 0, func() {})
			}
		})
		env.Run(0)
		sink += dev.Launches
	})
}

// microSim covers the engine primitives the models are built from.
func microSim(m map[string]float64, div int) {
	n := (1 << 17) / div
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	m["sim.event_ns"] = perOp(n, func() {
		env := sim.NewEnv()
		var fired uint64
		fn := func() { fired++ }
		for i := 0; i < n; i++ {
			env.After(sim.Duration(i*7919%1000003)*sim.Nanosecond, fn)
		}
		env.Run(0)
		sink += fired
	})
	runtime.ReadMemStats(&m1)
	m["sim.event_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(3*n)

	// Two procs whose wakeups alternate: every Sleep hands the control
	// token to the other goroutine.
	m["sim.sleep_ns"] = perOp(n, func() {
		env := sim.NewEnv()
		defer env.Close()
		for id := 0; id < 2; id++ {
			first := sim.Duration(id+1) * sim.Nanosecond
			env.Go("sleeper", func(p *sim.Proc) {
				p.Sleep(first)
				for i := 0; i < n/2; i++ {
					p.Sleep(2 * sim.Nanosecond)
				}
			})
		}
		env.Run(0)
	})
	m["sim.queue_ns"] = perOp(n, func() {
		env := sim.NewEnv()
		defer env.Close()
		q := sim.NewQueue[int](env, 1)
		env.Go("put", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Put(p, i)
			}
		})
		env.Go("get", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				sink += uint64(q.Get(p))
			}
		})
		env.Run(0)
	})
	m["sim.server_ns"] = perOp(n, func() {
		s := sim.NewServer(sim.NewEnv(), "s")
		for i := 0; i < n; i++ {
			sink += uint64(s.Schedule(sim.Duration(i%64) * sim.Nanosecond))
		}
	})

	const lat = 50 * sim.Microsecond
	const perWindow = 64
	m["sim.link_ns"] = perOp(n, func() {
		w := sim.NewWorld()
		defer w.Close()
		a, b := w.NewPartition("a"), w.NewPartition("b")
		inbox := sim.NewQueue[int](b.Env(), 0)
		link := sim.NewLink(a, b, lat, inbox)
		a.Env().Go("send", func(p *sim.Proc) {
			for i := 0; i < n; i += perWindow {
				for j := 0; j < perWindow; j++ {
					link.SendAt(p, p.Now()+sim.Time(j)*sim.Time(sim.Nanosecond), i+j)
				}
				p.Sleep(lat)
			}
		})
		b.Env().Go("recv", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				sink += uint64(inbox.Get(p))
			}
		})
		w.Run(sim.Time(lat)*sim.Time(n/perWindow+2), 1)
	})
	windows := 4096 / div
	m["sim.window_ns"] = perOp(windows, func() {
		w := sim.NewWorld()
		defer w.Close()
		parts := make([]*sim.Partition, 72)
		for i := range parts {
			parts[i] = w.NewPartition("p")
		}
		// One link gives the world its lookahead; one ticking proc opens
		// a window per tick, which the other 71 partitions sit out.
		sim.NewLink(parts[0], parts[1], lat, sim.NewQueue[int](parts[1].Env(), 0))
		parts[0].Env().Go("tick", func(p *sim.Proc) {
			for i := 0; i < windows; i++ {
				p.Sleep(lat)
			}
		})
		w.Run(sim.Time(lat)*sim.Time(windows+1), 1)
	})
}
