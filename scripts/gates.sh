#!/bin/sh
# gates.sh shows that the gates of `make check` can fail. It copies the
# tree to a temporary directory, applies one named mutation there, runs
# only the gate meant to catch it, and fails unless that gate fails with
# the finding it exists for. A mutation whose anchor text is gone, or
# that no longer compiles, fails the script too, so a refactor cannot
# quietly turn a mutation into a no-op.
#
#	scripts/gates.sh                      # every mutation
#	scripts/gates.sh shared-pointer ...   # the named ones
#
# Mutations and their gates:
#
#	shared-pointer  one forwarding counter for every fabric node,
#	                shared through a *uint64 field       -race
#	shared-global   the same counter as a package variable that
#	                fabric.run resets                     -race
#	walltime        time.Now() in internal/sim           pslint
#	map-order       a map range writing Result.Print's
#	                output                                pslint -only mapiter
#	bare-ps         a bare sim.Duration(500)              pslint -only picounits
#	shared-fixture  a MapPoints job writing a package
#	                variable                              pslint -only sharedfixture
#	h2d-slow        model.H2DTime 1.3 times too slow      the paper points
#	leak-app-drop   worker.finish keeps the Buf of a
#	                packet the app dropped                the packet ledger
#	sched-callback  a ctrl command callback's knob hook
#	                blocks on a worker task's Proc        the engine (ctrl tests)
#	fetch-cap       a worker reads the chunk cap when it
#	                fetches, not once per round           the pshaderd replay
#	link-up-rx      ApplyFault's link-up raises the TX
#	                carrier but leaves RX down            the pshaderd replay
#	global-rand     rand.Uint32() for rng.Uint32() in
#	                GenerateBGPTable                      the route tests
#	tx-run-offset   a TX run's k-th DMA completion one
#	                step early                            the TX oracle and
#	                                                      the golden files
#	tie-break       the event heap orders by time alone,
#	                without (at, seq)'s seq, in before
#	                and in popMin's child pick            FuzzEventStore and
#	                                                      the golden digests
#	model-vlb-share Evaluate spreads VLB over n-1
#	                intermediates instead of n           the fabric's model
#	                                                      check and the
#	                                                      golden files
#	fabric-lost-batch  a dead node's drop goes uncounted  the fabric ledger
#	chain-spans     ScheduleChain stops counting its
#	                services                              the server span
#	                                                      test and the
#	                                                      golden files
#	ctr-off-by-one  AES-CTR starts the RFC 3686 counter
#	                at 2                                  FuzzCTR
#	checksum-carry  the Internet checksum drops the carry
#	                between its 64-bit words              FuzzChecksum
#	busy-booked     Server.BusyTime counts service when
#	                it is booked, not as it runs          the golden run's
#	                                                      util and share
#	                                                      checks and
#	                                                      FuzzServerBusy
#	second-core-new a second core.New( call in an
#	                experiment                            the one-path gates
#	post-early      Link.flush moves every pending message
#	                whatever its send instant             the fabric oracle
#	window-skip     World windows start at the earliest
#	                event again, off the lookahead grid   the golden files
#	ecmp-stale-live faultsAt does not count a slot that
#	                goes down, so route skips the
#	                live-slot scan over a dead link       the fabric oracle
#	inbox-tie       InboxPeak counts a batch whose budget
#	                starts at the arrival as waiting      the fabric oracle
#	launch-latency-host  the GPU launch latency booked off
#	                the exec engine                       the full paper
#	                                                      points
#	kappa-ulp-down  model.IOHKappa one ulp below 0.465    the full golden
#	                                                      files
#	scatter-order   the master's scatter returns its
#	                chunks in reverse order               the full golden
#	                                                      files
#	sha1-lane       blockSHA1x16's lanes 8-15 read the
#	                messages of lanes 0-7                 FuzzHMACSHA1
#	experiment-goroutine  table1 starts a goroutine
#	                process (env.Go) again                the one-path gates
#	fma-model       model.Cycles' product unwrapped from
#	                its float64(…)                        the fused
#	                                                      multiply-add gate
#
# The -race gate is `go test -race -run 'ByteIdenticalAcrossWorkers'
# ./internal/cluster`, which advances the fabric's partitions on 2 and
# 8 workers: the check that a sim.World partition shares no unmediated
# state with another. The paper points are TestPaperPoints on the -short
# golden run, which holds table1's cells to the paper's Table 1; the
# ledger gate is TestDropsCounted, a run whose app drops every packet.
# The engine gate is sim's own panic on a blocking call on a task's Proc
# (a worker is one) or from an At/After callback or a task step; any
# test that reaches the call shows it. The
# route tests compare GenerateBGPTable against a seeded reference.
# tx-run-offset, tie-break and model-vlb-share name two gates each, and
# both must print their finding: TestTransmitMatchesPerPacketOracle
# against the per-packet reservations, and TestGoldenOutputs (the full
# run for a TX timing, whose tx.latency lines hold every completion; the
# -short run for the schedule, whose fabric blocks carry sim.digest
# lines); TestFabricMatchesModel, which holds the simulated fabric's
# hops to the analytic model's, and the -short TestGoldenOutputs on the
# fabric table. The fabric ledger is the panic in every fabric run when
# its batches do not add up; any test in go test ./internal/cluster
# that runs a faulted fabric shows it. chain-spans names two gates too:
# TestServerCountsTheSpansHooksSee, which holds every server's own span
# count to the spans its hooks see, and the full TestGoldenOutputs,
# whose fig11 metrics dumps print each server's span count on a util
# line (a TX wire server that counts none drops out of them). The
# pshaderd replay is check.sh's: the demo script's stdout against
# cmd/pshader/testdata (the trace goes to /dev/null, since its event
# count is part of the stdout); the demo retunes the chunk cap while
# workers are mid-round, so a cap read at the wrong point moves it, and
# it takes port 2 down and up again before its last stats line, whose
# rx count a port that stays deaf moves. FuzzCTR's seeds hold both
# AES-CTR paths to a block-at-a-time loop whose counter starts at 1.
# FuzzChecksum's seeds hold Checksum and TransportChecksumIPv4 to the
# 16-bit RFC 1071 loop; a run of 0xff bytes carries out of every 64-bit
# add. busy-booked names two gates: TestUtilLinesAtMost1000 and
# TestPipelineCoreSharesAtMost100 over the full golden run, which hold
# every util line to 1000 permille and every pipeline share to 100 %
# (a saturated IOH books RX DMA ahead of the run's end), and
# FuzzServerBusy's seeds, which hold BusyTime to the hooks' spans
# clipped at each reading. The one-path gates are scripts/onepath.sh,
# plain grep, so they run in this copy of the tree. The fabric oracle is
# TestFabricTasksMatchGoroutineOracle: a message posted ahead of its
# sender's clock and flushed before its send window reaches its
# destination in another order than the oracle's send at that instant.
# window-skip's gate is the -short TestGoldenOutputs: off the grid, the
# fabric's fewer engine events move the window starts, and with them
# the order of same-instant arrivals the fabric table was written
# with. ecmp-stale-live and inbox-tie are caught by the fabric oracle
# too: its goroutine forwarder always scans the live slots, so a leaf
# that routes onto a link its fault plan took down diverges in the
# faulted cases; and its tie case puts an arrival on the instant a
# waiting batch starts its budget, at the peak. launch-latency-host's
# gate is TestPaperPoints over the full golden run: with the latency off
# the exec engine, IPsec's four streams overlap their latencies, and
# fig11d's 64 B CPU+GPU point leaves its band (the latency grows with
# the thread count, so it is device work). kappa-ulp-down's gate is the
# full TestGoldenOutputs: one ulp of the IOH's coupling moves no table
# cell, only fig11a's first ioh0-up util line. scatter-order's gate is
# the full TestGoldenOutputs too: the master's scatter makes same-instant
# schedule calls, one per chunk, so returning the chunks in another order
# moves fig11a's sim.digest lines. sha1-lane's gate is FuzzHMACSHA1, which
# holds all sixteen lanes of a Batch flush to crypto/hmac; no golden byte
# depends on an ICV's value, so TestGoldenOutputs cannot catch it (and on
# a host without AVX-512 the lanes do not run: the row fails there).
# experiment-goroutine's gate is scripts/onepath.sh's rule that no
# non-test Go outside internal/sim calls .Go(. fma-model's gate is
# check.sh's fused-multiply-add gate (fma below): arm64 and ppc64le
# fuse Cycles' c/CPUFreqHz*1e12 + 0.5 once the product is unwrapped,
# and the gate names model.go.
# `make check` runs this script after its own gates.
set -eu

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
TREE="$TMP/tree"

# The working tree as it stands, tracked and new files alike.
mkdir "$TREE"
git ls-files -co --exclude-standard | while IFS= read -r f; do
	if [ -f "$f" ]; then echo "$f"; fi
done | tar -cf - -T - | tar -xf - -C "$TREE"

# The gates, and what each prints when it catches its mutation.
race="go test -race -count=1 -run ByteIdenticalAcrossWorkers ./internal/cluster"
pslint="go run ./cmd/pslint ./..."
only="go run ./cmd/pslint -only"
points="go test -short -count=1 -run TestPaperPoints ./internal/experiments"
ledger="go test -count=1 -run TestDropsCounted ./internal/core"
ctrltests="go test -count=1 ./internal/ctrl"
routetests="go test -count=1 ./internal/route"
txgates="go test -count=1 -run TestTransmitMatchesPerPacketOracle|TestGoldenOutputs ./internal/hw/nic ./internal/experiments"
heapgates="go test -count=1 -short -run TestGoldenOutputs|FuzzEventStore ./internal/experiments ./internal/sim"
modelgates="go test -count=1 -short -run TestFabricMatchesModel|TestGoldenOutputs ./internal/experiments"
clustertests="go test -count=1 ./internal/cluster"
spangates="go test -count=1 -run TestServerCountsTheSpansHooksSee|TestGoldenOutputs ./internal/sim ./internal/experiments"
ctrfuzz="go test -count=1 -run FuzzCTR ./internal/ipsec"
csumfuzz="go test -count=1 -run FuzzChecksum ./internal/packet"
hmacfuzz="go test -count=1 -run FuzzHMACSHA1 ./internal/ipsec"
busygates="go test -count=1 -run TestUtilLinesAtMost1000|TestPipelineCoreSharesAtMost100|FuzzServerBusy ./internal/experiments ./internal/sim"
oracle="go test -count=1 -run TestFabricTasksMatchGoroutineOracle ./internal/cluster"
golden="go test -count=1 -short -run TestGoldenOutputs ./internal/experiments"
fullgolden="go test -count=1 -run TestGoldenOutputs ./internal/experiments"
fullpoints="go test -count=1 -run TestPaperPoints ./internal/experiments"
onepath="sh scripts/onepath.sh"

# replay is the pshaderd replay's stdout gate, run in the tree.
replay() {
	go run ./cmd/pshader -app ipv4 -prefixes 5000 -fib dynamic \
		-ctrl scripts/pshaderd-demo.psc -warmup 2ms -duration 6ms \
		-metrics -trace /dev/null 2>/dev/null | cmp cmd/pshader/testdata/pshaderd-demo.txt -
}

# fma is check.sh's fused-multiply-add gate, run in the tree.
fma() {
	for arch in arm64 ppc64le; do
		GOARCH=$arch go build -trimpath -gcflags=-S ./internal/... 2>"$TMP/asm-$arch.txt"
		fused="$(awk '$4 ~ /^FN?M(ADD|SUB)[DS]?$/ && $3 ~ /^\(packetshader\/internal\// { print $3 }' "$TMP/asm-$arch.txt" | sort -u)"
		if [ -n "$fused" ]; then
			echo "$arch fuses a multiply-add at (wrap the product in float64(…)):"
			echo "$fused"
			return 1
		fi
	done
}

# insert FILE ANCHOR TEXT adds TEXT as a new line after the one line of
# FILE (relative to the tree) that contains ANCHOR.
insert() {
	anchored "$1" "$2" || return 0
	awk -v anchor="$2" -v text="$3" '{ print } index($0, anchor) { print text }' \
		"$TREE/$1" >"$TMP/insert" && cp "$TMP/insert" "$TREE/$1"
}

# delete FILE ANCHOR removes the one line of FILE that contains ANCHOR.
delete() {
	anchored "$1" "$2" || return 0
	awk -v anchor="$2" '!index($0, anchor)' "$TREE/$1" >"$TMP/delete" && cp "$TMP/delete" "$TREE/$1"
}

# anchored FILE ANCHOR fails, and marks the mutation broken, unless
# exactly one line of FILE contains ANCHOR; it records FILE as touched.
anchored() {
	n="$(grep -cF -- "$2" "$TREE/$1" || true)"
	if [ "$n" != 1 ]; then
		echo "mutation does not apply: $n lines of $1 contain: $2"
		broken=1
		return 1
	fi
	touched="$touched $1"
}

mutate_shared_pointer() {
	f=internal/cluster/fabric.go
	insert $f 'type fabricNode struct {' '	shared *uint64'
	insert $f 'f := &fabric{' '	shared := new(uint64)'
	insert $f 'f.nodes[i] = nd' '		nd.shared = shared'
	insert $f 'nd.fwdFree = e' '	*nd.shared++'
	gate=$race want="WARNING: DATA RACE"
}

mutate_shared_global() {
	f=internal/cluster/fabric.go
	insert $f 'type genHeap []genSlot' 'var forwardsSeen uint64'
	insert $f 'func (f *fabric) run() FabricResult {' '	forwardsSeen = 0'
	insert $f 'nd.fwdFree = e' '	forwardsSeen++'
	gate=$race want="WARNING: DATA RACE"
}

mutate_walltime() {
	f=internal/sim/env.go
	insert $f '"runtime"' '	"time"'
	insert $f 'e.until = until' '	_ = time.Now()'
	gate=$pslint want="[walltime]"
}

mutate_map_order() {
	insert internal/experiments/experiments.go 'var b strings.Builder' \
		'	for k := range map[string]bool{r.ID: true} { b.WriteString(k) }'
	gate="$only mapiter ./..." want="[mapiter]"
}

mutate_bare_ps() {
	insert internal/core/faults.go 'case faults.KindRxDropBurst:' '		e.Dur += sim.Duration(500)'
	gate="$only picounits ./..." want="[picounits]"
}

mutate_shared_fixture() {
	insert internal/experiments/fig12.go 'offered := offeredLevels[k/3]' '		bgpEntries = nil'
	gate="$only sharedfixture ./..." want="[sharedfixture]"
}

mutate_h2d_slow() {
	insert internal/model/model.go 'ns := PCIeH2DAlphaNs' '	ns *= 1.3'
	gate=$points want="point (table1, 256, Host-to-device)"
}

mutate_leak_app_drop() {
	delete internal/core/worker.go 'b.Release()'
	gate=$ledger want="packet ledger does not balance"
}

mutate_sched_callback() {
	insert internal/core/worker.go 'type worker struct {' '	proc *sim.Proc'
	insert internal/core/worker.go 'func (w *worker) step(p *sim.Proc) {' '	w.proc = p'
	insert internal/core/core.go 'func (r *Router) SetChunkCap(n int) {' '	r.workers[0].outQ.Put(r.workers[0].proc, nil)'
	gate=$ctrltests want="Queue.Put on task worker: a task's step must not block"
}

mutate_fetch_cap() {
	insert internal/core/worker.go 'case wPolled:' '			w.chunkCap = cfg.ChunkCap'
	gate=replay want="pshaderd-demo.txt - differ"
}

mutate_link_up_rx() {
	insert internal/core/faults.go 'port.Tx.SetCarrier(up)' '			up = false'
	gate=replay want="pshaderd-demo.txt - differ"
}

mutate_ctr_off_by_one() {
	insert internal/ipsec/aes.go 'binary.BigEndian.PutUint32(a.ctr[12:16], 1)' '	a.ctr[15] = 2'
	gate=$ctrfuzz want="differs from the block loop"
}

mutate_checksum_carry() {
	insert internal/packet/checksum.go 's, c = bits.Add64(s, binary.BigEndian.Uint64(b), c)' '		c = 0'
	gate=$csumfuzz want="differs from the 16-bit reference"
}

mutate_busy_booked() {
	insert internal/sim/resource.go 'func (s *Server) BusyTime() Duration {' '	return s.booked'
	gate=$busygates want="util line over 1000" want2="the spans clipped there total"
}

mutate_second_core_new() {
	insert internal/experiments/fig12.go 'warm := inst.Run(appWarmup)' \
		'	_ = func() *core.Router { return core.New(inst.Env, core.DefaultConfig(), app) }'
	gate=$onepath want="core.New( must have exactly one caller"
}

mutate_global_rand() {
	f=internal/route/route.go
	insert $f 'addr := packet.IPv4Addr(rng.Uint32()' \
		'		addr := packet.IPv4Addr(rand.Uint32() & (Prefix{Len: l}).Mask())'
	delete $f 'addr := packet.IPv4Addr(rng.Uint32()'
	gate=$routetests want="differs between runs with same seed"
}

mutate_tx_run_offset() {
	f=internal/hw/pcie/pcie.go
	insert $f 'return r.downStart + sim.Time(k+1)*sim.Time(r.down)' \
		'	return r.downStart + sim.Time(k)*sim.Time(r.down)'
	delete $f 'return r.downStart + sim.Time(k+1)*sim.Time(r.down)'
	gate=$txgates want="differs from the per-packet oracle" want2="hist tx.latency"
}

mutate_tie_break() {
	f=internal/sim/events.go
	insert $f 'func (a *event) before(b *event) bool {' '	return a.at < b.at'
	delete $f 'a.at == b.at && a.seq < b.seq'
	insert $f 'rc.seq < lc.seq' '			c += b2i(rc.at < lc.at)'
	delete $f 'rc.seq < lc.seq'
	gate=$heapgates want="heap popped" want2="counter sim.digest"
}

mutate_model_vlb_share() {
	f=internal/cluster/cluster.go
	insert $f 'share := gbps / float64(n)' '				share := gbps / float64(n-1)'
	delete $f 'share := gbps / float64(n)'
	gate=$modelgates want="off the model" want2="fabric differs from"
}

mutate_fabric_lost_batch() {
	delete internal/cluster/fabric.go 'nd.nodeDrops++'
	gate=$clustertests want="fabric ledger does not balance"
}

mutate_chain_spans() {
	delete internal/sim/resource.go 's.spans += uint64(len(at))'
	gate=$spangates want="ScheduleChain: server counts" want2="util tx0-wire"
}

mutate_post_early() {
	insert internal/sim/world.go 'func (l *Link[T]) flush(end Time) bool {' '	end = 1<<63 - 1'
	gate=$oracle want="diverged from the goroutine oracle"
}

mutate_window_skip() {
	delete internal/sim/world.go 'start -= start % Time(w.lookahead)'
	gate=$golden want="fabric differs from"
}

mutate_ecmp_stale_live() {
	delete internal/cluster/fabric.go 'nd.down++'
	gate=$oracle want="diverged from the goroutine oracle"
}

mutate_inbox_tie() {
	f=internal/cluster/fabric.go
	insert $f 'nd.started.Front() <= now' '	for nd.started.Len() > 0 && nd.started.Front() < now {'
	delete $f 'nd.started.Front() <= now'
	gate=$oracle want="diverged from the goroutine oracle"
}

mutate_launch_latency_host() {
	f=internal/hw/gpu/gpu.go
	insert $f 'd.exec.ScheduleAt(h2d, kernel); k == 0' \
		'		if end := d.exec.ScheduleAt(h2d+sim.Time(latency), kernel-latency); k == 0 {'
	delete $f 'd.exec.ScheduleAt(h2d, kernel); k == 0'
	gate=$fullpoints want="point (fig11d, 64, CPU+GPU)" want2="outside its band"
}

mutate_scatter_order() {
	f=internal/core/master.go
	insert $f 'c := m.gather[m.k]' '				c := m.gather[len(m.gather)-1-m.k]'
	delete $f 'c := m.gather[m.k]'
	gate=$fullgolden want="fig11a differs from" want2="counter sim.digest"
}

mutate_sha1_lane() {
	f=internal/ipsec/sha1x16_amd64.s
	insert $f 'VMOVDQU64 64(AX), Z8' '	VMOVDQU64 (AX), Z8'
	delete $f 'VMOVDQU64 64(AX), Z8'
	gate=$hmacfuzz want="lane 8 of 16"
}

mutate_kappa_ulp_down() {
	f=internal/model/model.go
	insert $f 'IOHKappa = 0.465' '	IOHKappa = 0.46499999999999997 // one ulp below'
	delete $f 'IOHKappa = 0.465'
	gate=$fullgolden want="fig11a differs from" want2="util ioh0-up"
}

mutate_experiment_goroutine() {
	insert internal/experiments/micro.go 'link := pcie.NewLink(env, pcie.NewIOH(env, 0), "gpu")' \
		'		env.Go("copier", func(p *sim.Proc) { p.Sleep(0) })'
	gate=$onepath want="a process outside internal/sim is a task"
}

mutate_fma_model() {
	f=internal/model/model.go
	insert $f 'return sim.Duration(float64(c/CPUFreqHz*float64(sim.Second)) + 0.5)' \
		'	return sim.Duration(c/CPUFreqHz*float64(sim.Second) + 0.5)'
	delete $f 'return sim.Duration(float64(c/CPUFreqHz*float64(sim.Second)) + 0.5)'
	gate=fma want="fuses a multiply-add at" want2="packetshader/internal/model/model.go:"
}

if [ $# -eq 0 ]; then
	set -- shared-pointer shared-global walltime map-order bare-ps shared-fixture \
		h2d-slow leak-app-drop sched-callback global-rand tx-run-offset tie-break \
		model-vlb-share fabric-lost-batch chain-spans fetch-cap link-up-rx ctr-off-by-one \
		checksum-carry busy-booked second-core-new post-early window-skip ecmp-stale-live \
		inbox-tie launch-latency-host kappa-ulp-down scatter-order sha1-lane \
		experiment-goroutine fma-model
fi

status=0
for m in "$@"; do
	touched=""
	broken=0
	want2=""
	echo "== gate mutation $m"
	case "$m" in
	shared-pointer) mutate_shared_pointer ;;
	shared-global) mutate_shared_global ;;
	walltime) mutate_walltime ;;
	map-order) mutate_map_order ;;
	bare-ps) mutate_bare_ps ;;
	shared-fixture) mutate_shared_fixture ;;
	h2d-slow) mutate_h2d_slow ;;
	leak-app-drop) mutate_leak_app_drop ;;
	sched-callback) mutate_sched_callback ;;
	global-rand) mutate_global_rand ;;
	tx-run-offset) mutate_tx_run_offset ;;
	tie-break) mutate_tie_break ;;
	model-vlb-share) mutate_model_vlb_share ;;
	fabric-lost-batch) mutate_fabric_lost_batch ;;
	chain-spans) mutate_chain_spans ;;
	fetch-cap) mutate_fetch_cap ;;
	link-up-rx) mutate_link_up_rx ;;
	ctr-off-by-one) mutate_ctr_off_by_one ;;
	checksum-carry) mutate_checksum_carry ;;
	busy-booked) mutate_busy_booked ;;
	second-core-new) mutate_second_core_new ;;
	post-early) mutate_post_early ;;
	window-skip) mutate_window_skip ;;
	ecmp-stale-live) mutate_ecmp_stale_live ;;
	inbox-tie) mutate_inbox_tie ;;
	launch-latency-host) mutate_launch_latency_host ;;
	kappa-ulp-down) mutate_kappa_ulp_down ;;
	scatter-order) mutate_scatter_order ;;
	sha1-lane) mutate_sha1_lane ;;
	experiment-goroutine) mutate_experiment_goroutine ;;
	fma-model) mutate_fma_model ;;
	*)
		echo "unknown mutation $m"
		exit 2
		;;
	esac
	if [ $broken = 0 ] && ! (cd "$TREE" && go build ./...); then
		echo "mutation $m does not compile"
		broken=1
	fi
	if [ $broken = 1 ]; then
		status=1
	else
		echo "\$ $gate"
		if (cd "$TREE" && $gate) >"$TMP/out" 2>&1; then
			cat "$TMP/out"
			echo "NOT CAUGHT: $m passes its gate"
			status=1
		elif grep -qF -- "$want" "$TMP/out" && grep -qF -- "${want2:-$want}" "$TMP/out"; then
			grep -F -e "$want" -e "${want2:-$want}" "$TMP/out" | head -n 4
			echo "caught: $m"
		else
			cat "$TMP/out"
			echo "the gate failed on $m without printing \"$want\"${want2:+ and \"$want2\"}"
			status=1
		fi
	fi
	for f in $touched; do
		cp "$ROOT/$f" "$TREE/$f"
	done
done
exit $status
