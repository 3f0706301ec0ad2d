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

if [ $# -eq 0 ]; then
	set -- shared-pointer shared-global walltime map-order bare-ps shared-fixture \
		h2d-slow leak-app-drop sched-callback global-rand
fi

status=0
for m in "$@"; do
	touched=""
	broken=0
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
		elif grep -qF -- "$want" "$TMP/out"; then
			grep -F -- "$want" "$TMP/out" | head -n 3
			echo "caught: $m"
		else
			cat "$TMP/out"
			echo "the gate failed on $m without printing \"$want\""
			status=1
		fi
	fi
	for f in $touched; do
		cp "$ROOT/$f" "$TREE/$f"
	done
done
exit $status
