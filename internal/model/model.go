// Package model holds every calibrated hardware constant used by the
// PacketShader simulation, in one place, with the derivation of each
// number from the paper (Han et al., SIGCOMM 2010) documented next to it.
//
// The constants fall into three groups:
//
//   - directly quoted by the paper (GPU clock, core counts, memory
//     bandwidths, Table 1 transfer rates, launch latencies);
//   - fitted to the paper's measurements (PCIe α/β from Table 1, packet
//     I/O cycle costs from Figure 5, IOH capacities from Figure 6);
//   - estimated from 2010-era hardware where the paper gives only the
//     resulting throughput (per-byte cipher costs, GPU random-access
//     rate), then cross-checked against the paper's end-to-end numbers.
package model

import "packetshader/internal/sim"

// ---------------------------------------------------------------------------
// CPU: 2 × Intel Xeon X5550 (Nehalem, 4 cores, 2.66 GHz), Table 2.
// ---------------------------------------------------------------------------

const (
	// CPUFreqHz is the X5550 clock (§3.1).
	CPUFreqHz = 2.66e9
	// NumNodes and CoresPerNode describe the dual-socket NUMA layout
	// (Figure 3).
	NumNodes     = 2
	CoresPerNode = 4

	// LocalMemLatencyNs is DRAM access latency from the local node.
	// Nehalem + DDR3-1333 measured ~65 ns in contemporary reports.
	LocalMemLatencyNs = 65.0
	// RemoteMemFactor: §4.5 reports 40-50% higher latency for
	// node-crossing access; we use the midpoint.
	RemoteMemFactor = 1.45
)

// Cycles converts a cycle count to virtual time at the CPU clock.
func Cycles(c float64) sim.Duration {
	return sim.Duration(c/CPUFreqHz*float64(sim.Second) + 0.5)
}

// CyclesOf converts a duration back to CPU cycles.
func CyclesOf(d sim.Duration) float64 {
	return d.Seconds() * CPUFreqHz
}

// MemAccessCycles is the CPU cycle cost of one cache-missing memory
// access with no memory-level parallelism (dependent chain), local node.
func MemAccessCycles() float64 { return LocalMemLatencyNs * 1e-9 * CPUFreqHz } // ≈173

// ---------------------------------------------------------------------------
// Ethernet / NIC: 4 × Intel X520-DA2 dual-port 10GbE (Table 2).
// ---------------------------------------------------------------------------

const (
	NumPorts    = 8
	PortRateBps = 10e9
	RxRingSize  = 2048
	TxRingSize  = 2048

	// EthOverheadBytes: the paper counts 24B of Ethernet overhead
	// (footnote 1): 8B preamble+SFD, 12B IFG, 4B FCS. A "64B packet"
	// therefore occupies 88B of wire time: 41.1 Gbps == 58.4 Mpps (§4.6).
	EthOverheadBytes = 24
)

// WireBytes returns bytes of wire time for a packet of the given size.
func WireBytes(pktSize int) int { return pktSize + EthOverheadBytes }

// WireTime returns the serialization time of one packet on a 10GbE link.
// The float expression and its truncating conversion are the definition:
// (pktSize+24)*800 ps would differ at 50 sizes in 64…2048 (51 B gives
// 59,999 ps, not 60,000), and every result byte rests on these values.
func WireTime(pktSize int) sim.Duration {
	bits := float64(WireBytes(pktSize)) * 8
	return sim.Duration(bits / PortRateBps * float64(sim.Second))
}

// PortPacketRate returns the line-rate packet rate of one port (pps).
func PortPacketRate(pktSize int) float64 {
	return PortRateBps / (float64(WireBytes(pktSize)) * 8)
}

// GbpsFromPps converts a packet rate to the paper's throughput metric
// (Gbps of wire time, including the 24B overhead).
func GbpsFromPps(pps float64, pktSize int) float64 {
	return pps * float64(WireBytes(pktSize)) * 8 / 1e9
}

// ---------------------------------------------------------------------------
// PCIe / DMA: fitted to Table 1 with t(size) = α + size/β.
//
// A least-squares fit over all seven rows gives
//   host→device: α = 4.90 µs, β = 5.80 GB/s
//   device→host: α = 4.20 µs, β = 3.44 GB/s
// which reproduces every Table 1 cell within 10% (verified by
// TestTable1Reproduction; the 1KB row is the worst because the table
// itself is not monotone in implied transfer time there). The d2h
// direction is slower because of the dual-IOH problem (§3.2).
// ---------------------------------------------------------------------------

const (
	PCIeH2DAlphaNs = 4900.0
	PCIeH2DBetaBps = 5.80e9
	PCIeD2HAlphaNs = 4200.0
	PCIeD2HBetaBps = 3.44e9
)

// H2DTime returns the host→device transfer time for size bytes.
func H2DTime(size int) sim.Duration {
	ns := PCIeH2DAlphaNs + float64(size)/PCIeH2DBetaBps*1e9
	return sim.Duration(ns * float64(sim.Nanosecond))
}

// D2HTime returns the device→host transfer time for size bytes.
func D2HTime(size int) sim.Duration {
	ns := PCIeD2HAlphaNs + float64(size)/PCIeD2HBetaBps*1e9
	return sim.Duration(ns * float64(sim.Nanosecond))
}

// ---------------------------------------------------------------------------
// IOH (Intel 5520) with the dual-IOH asymmetry (§3.2).
//
// Figure 6 anchors: TX-only reaches 79-80 Gbps (line rate), RX-only
// 53-60 Gbps, RX+TX forwarding ~41 Gbps for all packet sizes. Modeling
// each IOH as a linear bidirectional constraint
//
//	up/IOHUpBps + down/IOHDownBps <= 1
//
// with up = device→host (RX DMA, GPU d2h) capacity 30 Gbps/IOH and down =
// host→device capacity 60 Gbps/IOH reproduces all three anchors once
// per-packet descriptor traffic (24B: descriptor fetch + write-back +
// doorbell MMIO) is included: RX-only ≈ 60 Gbps of wire throughput,
// TX-only line-bound at 80, and forwarding ≈ 40 *independent of packet
// size* — because the per-packet fabric overhead (24B) equals the
// per-packet wire overhead (24B), exactly the property Figure 6 shows.
// The same constants independently predict the paper's 20 Gbps IPsec
// plateau (packet payloads cross the IOH twice more, §6.3).
// ---------------------------------------------------------------------------

const (
	IOHUpBps   = 30e9 / 8 // bytes/s of device→host capacity per IOH
	IOHDownBps = 60e9 / 8 // bytes/s of host→device capacity per IOH

	// IOHKappa is the fraction of a down transfer's byte cost charged
	// against the up engine (completion/credit traffic returning on the
	// congested device→host path — the dual-IOH erratum). 0.465 places
	// balanced forwarding at 2×30/(1+0.465) ≈ 41 Gbps, the paper's
	// plateau, while leaving TX-only line-bound.
	IOHKappa = 0.465

	// DMADescBytes approximates per-packet descriptor/doorbell traffic
	// accompanying each packet's DMA. 24B (descriptor fetch +
	// write-back + doorbell) equals the Ethernet wire overhead, making
	// the forwarding plateau size-independent as Figure 6 shows.
	DMADescBytes = 24

	// RxDMAPipelineNs bounds how far ahead of its in-flight RX DMA a
	// driver may run (descriptor prefetch depth): the CPU can process
	// packets while the next few microseconds of DMA stream in, but
	// cannot consume packets whose data is still behind a saturated
	// IOH.
	RxDMAPipelineNs = 10000.0
)

// IOHCost returns the total IOH capacity consumed by a transfer moving
// up bytes device→host and down bytes host→device, expressed as
// up-engine + down-engine occupancy (used by tests and back-of-envelope
// checks; the pcie package charges the two engines separately).
func IOHCost(up, down int) sim.Duration {
	s := (float64(up)+IOHKappa*float64(down))/IOHUpBps + float64(down)/IOHDownBps
	return sim.DurationFromSeconds(s)
}

// ---------------------------------------------------------------------------
// GPU: NVIDIA GTX480 (Fermi), §2.1-§2.2.
// ---------------------------------------------------------------------------

const (
	GPUSMs           = 15
	GPUSPsPerSM      = 32
	GPUCores         = GPUSMs * GPUSPsPerSM // 480
	GPUFreqHz        = 1.4e9
	GPUWarpSize      = 32
	GPUMaxWarpsPerSM = 32 // scheduler holds up to 32 warps (§2.1)

	// Launch latency (§2.2): 3.8 µs for 1 thread, 4.1 µs for 4096.
	// Linear fit: base 3.8 µs + 73 ps/thread.
	GPULaunchBaseNs      = 3800.0
	GPULaunchPerThreadNs = 0.073

	// GPUSyncOverheadNs is the host-side CUDA driver round-trip cost of
	// a synchronous launch+copy sequence (stream setup, event poll,
	// completion notification). ~2010 CUDA measured 20-40 µs for the
	// full synchronous cycle; 23 µs places the Figure 2 crossover with
	// one X5550 at ≈320 packets as the paper reports.
	GPUSyncOverheadNs = 23000.0

	// GPURandomAccessPerSec is the device-memory random (uncoalesced)
	// access rate. GDDR5 at 177.4 GB/s moving ~128B transactions for
	// scattered 4-16B reads, with bank conflicts, sustains roughly
	// 630M accesses/s — calibrated so the IPv6 kernel (7 dependent
	// accesses) peaks at ≈90 Mlookups/s raw, ≈8-10× one X5550
	// end-to-end with copies included: the paper's "about ten X5550
	// processors" (§2.3).
	GPURandomAccessPerSec = 630e6

	// GPUDevMemLatencyNs is a single device-memory access latency
	// (~400-800 cycles on Fermi); dominates when too few warps are
	// resident to hide it (§2.1).
	GPUDevMemLatencyNs = 350.0
)

// GPULaunchTime returns the kernel launch latency for n threads.
func GPULaunchTime(threads int) sim.Duration {
	ns := GPULaunchBaseNs + GPULaunchPerThreadNs*float64(threads)
	return sim.Duration(ns * float64(sim.Nanosecond))
}

// ---------------------------------------------------------------------------
// Packet I/O engine cycle costs (§4).
//
// Figure 5 anchors (one 2.66 GHz core, two ports, 64B packets, huge
// buffer path): 0.78 Gbps at batch size 1 and 10.5 Gbps at batch 64,
// i.e. 1.108 Mpps → 2400 cycles/pkt and 14.91 Mpps → 178 cycles/pkt.
// With cycles(b) = Batch/b + PerPkt: Batch ≈ 2257, PerPkt ≈ 143.
// (The forwarding number includes both RX and TX of each packet.)
// ---------------------------------------------------------------------------

const (
	// IOBatchCycles is charged once per batch (syscall crossing,
	// interrupt handling, queue bookkeeping, doorbells).
	IOBatchCycles = 2257.0
	// IOPerPacketCycles is the huge-buffer per-packet RX+TX cost
	// (descriptor handling, copy to user chunk, prefetch-amortized).
	IOPerPacketCycles = 143.0
	// IORxShare/IOTxShare split the costs between the RX and TX halves;
	// RX is the more expensive half (buffer recycling, copies).
	IORxShare = 0.6
	IOTxShare = 0.4

	// CopyCyclesPerByte is the huge-buffer→user-chunk copy cost; §4.3
	// argues it stays under 20% of packet I/O cycles because the user
	// buffer is cache resident. 0.25 cycles/B ≈ 16B/cycle SSE copy from
	// cache: 64B → 16 cycles ≈ 11% of 143.
	CopyCyclesPerByte = 0.25
)

// ---------------------------------------------------------------------------
// Legacy skb path costs (Table 3). The paper's breakdown of RX-only CPU
// usage with the unmodified ixgbe driver:
//
//	skb initialization        4.9%
//	skb (de)allocation        8.0%
//	memory subsystem         50.2%
//	NIC device driver        13.3%
//	others                    9.8%
//	compulsory cache misses  13.8%
//
// RouteBricks-era Linux spent ~2500-3000 cycles receiving a 64B packet;
// we take 2800 cycles/packet total for the skb RX path and size each bin
// to the paper's shares. The simulation *recomputes* the shares from the
// slab-allocator operation counts (internal/mem) — these constants set
// the per-operation costs.
// ---------------------------------------------------------------------------

const (
	SkbRxTotalCycles = 2800.0

	// SkbInitCycles: zeroing + initializing the 208B skb metadata.
	SkbInitCycles = SkbRxTotalCycles * 0.049 // ≈137
	// SkbAllocWrapperCycles: alloc_skb/kfree_skb wrapper layers, per
	// packet (covering both the alloc and free halves).
	SkbAllocWrapperCycles = SkbRxTotalCycles * 0.080 // ≈224
	// SlabOpCycles: one slab-allocator op (alloc or free of one buffer).
	// Each packet performs 4 ops (alloc+free of skb and of the data
	// buffer): 4 × 351 ≈ 1406 ≈ 50.2%.
	SlabOpCycles = SkbRxTotalCycles * 0.502 / 4 // ≈351
	// SkbDriverCycles: ixgbe per-packet bookkeeping incl. per-packet DMA
	// mapping.
	SkbDriverCycles = SkbRxTotalCycles * 0.133 // ≈372
	// SkbOtherCycles: protocol demux, stats, softirq accounting.
	SkbOtherCycles = SkbRxTotalCycles * 0.098 // ≈274
	// CompulsoryMissCycles: DMA-invalidated first-touch misses on the
	// descriptor + packet data (two lines remote from cache): ≈ 2.2
	// misses × 173 cycles ≈ 386 ≈ 13.8%. The huge-buffer path removes
	// these with software prefetch (§4.3).
	CompulsoryMissCycles = SkbRxTotalCycles * 0.138 // ≈386

	// SkbMetadataBytes is the Linux skb metadata the huge packet
	// buffer's 8-byte cell replaces; HugeCellDataBytes is that buffer's
	// data cell (§4.2).
	SkbMetadataBytes  = 208
	HugeCellDataBytes = 2048
)

// ---------------------------------------------------------------------------
// Multi-core / NUMA effects (§4.4-4.5).
// ---------------------------------------------------------------------------

const (
	// FalseSharingPenaltyCycles per packet when per-queue data is not
	// cache-line aligned (coherence miss on a bouncing line). §4.4:
	// per-packet cycles rose 20% with 8 cores; 20% of ~178 ≈ 36; split
	// between the two §4.4 problems.
	FalseSharingPenaltyCycles = 18.0
	// SharedCounterPenaltyCycles per packet for per-NIC (vs per-queue)
	// statistics counters (coherent cache miss on a contended line).
	SharedCounterPenaltyCycles = 18.0
)

// ---------------------------------------------------------------------------
// Application costs on the CPU.
// ---------------------------------------------------------------------------

const (
	// IPv4LookupAccessCycles: DIR-24-8 does 1 dependent DRAM access
	// (2 for the 3% of prefixes longer than /24); the table never fits
	// in cache with 282k prefixes. Plus ~25 cycles of arithmetic.
	IPv4LookupComputeCycles = 25.0

	// IPv6LookupComputeCycles: per-probe hashing and comparison in the
	// binary-search-on-length algorithm, on top of 7 dependent memory
	// accesses. One lookup ≈ 7×(173+14) ≈ 1310 cycles → ≈2.03
	// Mlookups/s/core, 8.1 M/s per X5550 — matching the Figure 2 CPU
	// plateau that makes the GPU "ten X5550s" at its 80 M/s peak.
	IPv6LookupComputeCycles = 14.0 // per probe
	IPv6LookupProbes        = 7

	// OpenFlow (§6.2.3): per-packet flow-key extraction, hashing, and
	// exact-match probe. Hashing the assembled 10-field key dominated
	// the 2010 software switch (≈8 cycles/byte over the 32B key plus
	// field gathering) — which is why hash offload is the GPU's first
	// win in Figure 11(c). The probe is 1-2 memory accesses depending
	// on table size vs cache; a wildcard linear search costs ~20
	// cycles/entry (a few masked compares).
	OFKeyExtractCycles    = 90.0
	OFHashCycles          = 260.0
	OFWildcardEntryCycles = 20.0

	// L3CacheBytes per socket (X5550: 8 MB) — drives the
	// table-size-dependent probe cost in the OpenFlow experiment.
	L3CacheBytes = 8 << 20

	// Pre-/post-shading worker costs per packet. Pre-shading parses
	// headers, validates, classifies slow-path packets, and builds the
	// GPU input arrays (§5.3); post-shading applies results and splits
	// chunks per port.
	AppIPv4PreCycles   = 85.0
	AppIPv4PostCycles  = 25.0
	AppIPv6PreCycles   = 70.0
	AppIPv6PostCycles  = 25.0
	AppOFActionCycles  = 20.0
	AppIPsecPreCycles  = 300.0
	AppIPsecPostCycles = 100.0

	// MemContentionFactor inflates DRAM access latency when all eight
	// cores burst memory references simultaneously — §2.4's
	// microbenchmark shows per-core MLP dropping from 6 to 4 under
	// full-machine load, i.e. ~35-50% higher effective access cost.
	// Applied to the CPU-only mode's table lookups (the paper's
	// CPU-only runs keep every core on the memory-bound fast path).
	MemContentionFactor = 1.35

	// IPsec CPU costs (§6.2.4): SSE-optimized software AES-128-CTR +
	// SHA1-HMAC on Nehalem (no AES-NI) ≈ 30 cycles/byte combined, plus
	// per-packet ESP overhead (header build, IV, key setup, padding).
	// Yields 2.9/5.4 Gbps CPU-only at 64B/1514B as the paper measures.
	IPsecCPUPerPacketCycles = 1200.0
	IPsecCPUPerByteCycles   = 30.0
)

// ---------------------------------------------------------------------------
// Application costs on the GPU (per-kernel descriptors; consumed by
// internal/hw/gpu).
// ---------------------------------------------------------------------------

const (
	// GPUIPsecPerPacketNs is the GPU-wide effective per-packet cost of
	// the IPsec kernel pair (per-packet SHA1 finalization is serial in
	// one thread; IV/key fetch per packet): calibrated so two GPUs
	// sustain ≈14.5 Mpps at 64B (10.2 Gbps) and ≈33 Gbps without
	// packet I/O, matching §6.3.
	GPUIPsecPerPacketNs = 88.0
	// GPUIPsecBytesPerSec is the per-GPU streaming cipher rate
	// (AES-128-CTR + SHA1 over packet bytes, in-die memory optimized).
	GPUIPsecBytesPerSec = 2.2e9
)

// ---------------------------------------------------------------------------
// Chunk / framework parameters (§5.3).
// ---------------------------------------------------------------------------

const (
	// MaxChunkSize caps a chunk (batch of packets fetched at once); the
	// chunk size is adaptive below the cap.
	MaxChunkSize = 256
	// MaxGatherChunks bounds how many chunks a master gathers into one
	// GPU launch (§5.4 gather/scatter).
	MaxGatherChunks = 8
	// InputQueueDepth/OutputQueueDepth are the worker↔master queues.
	InputQueueDepth  = 64
	OutputQueueDepth = 64

	// InterruptModerationNs models the NIC's interrupt moderation timer
	// (§6.4: it raises latency at low offered load).
	InterruptModerationNs = 30000.0
)
