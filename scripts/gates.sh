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
#	                blocks on a worker's Proc             the engine (ctrl tests)
#	global-rand     rand.Uint32() for rng.Uint32() in
#	                GenerateBGPTable                      the route tests
#	tx-run-offset   a TX run's k-th DMA completion one
#	                step early                            the TX oracle and
#	                                                      the golden files
#	tie-break       the event heap orders by time alone,
#	                without (at, seq)'s seq               FuzzEventStore and
#	                                                      the golden digests
#	model-vlb-share Evaluate spreads VLB over n-1
#	                intermediates instead of n           the fabric's model
#	                                                      check and the
#	                                                      golden files
#	fabric-lost-batch  a dead node's drop goes uncounted  the fabric ledger
#
# The -race gate is `go test -race -run 'ByteIdenticalAcrossWorkers'
# ./internal/cluster`, which advances the fabric's partitions on 2 and
# 8 workers: the check that a sim.World partition shares no unmediated
# state with another. The paper points are TestPaperPoints on the -short
# golden run, which holds table1's cells to the paper's Table 1; the
# ledger gate is TestDropsCounted, a run whose app drops every packet.
# The engine gate is sim's own panic on a blocking call from an At/After
# callback or a task step; any test that reaches the call shows it. The
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
# that runs a faulted fabric shows it.
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
	insert $f 'nd.cur, nd.busy = b, true' '		*nd.shared++'
	gate=$race want="WARNING: DATA RACE"
}

mutate_shared_global() {
	f=internal/cluster/fabric.go
	insert $f 'type genHeap []genSlot' 'var forwardsSeen uint64'
	insert $f 'func (f *fabric) run() FabricResult {' '	forwardsSeen = 0'
	insert $f 'nd.cur, nd.busy = b, true' '		forwardsSeen++'
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
	insert internal/core/faults.go 'func (r *Router) RxDropBurst(' '	d += sim.Duration(500)'
	gate="$only picounits ./..." want="[picounits]"
}

mutate_shared_fixture() {
	insert internal/experiments/fig12.go 'offered := offeredLevels[k/3]' '		partitionWorkers = k'
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
	insert internal/core/worker.go 'func (w *worker) run(p *sim.Proc) {' '	w.proc = p'
	insert internal/core/mailbox.go 'w.mail.TryPut(m)' '		w.mail.Put(w.proc, m)'
	gate=$ctrltests want="Queue.Put on worker from scheduler context"
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

if [ $# -eq 0 ]; then
	set -- shared-pointer shared-global walltime map-order bare-ps shared-fixture \
		h2d-slow leak-app-drop sched-callback global-rand tx-run-offset tie-break \
		model-vlb-share fabric-lost-batch
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
