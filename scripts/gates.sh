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
#
# The -race gate is `go test -race -run 'ByteIdenticalAcrossWorkers'
# ./internal/cluster`, which advances the fabric's partitions on 2 and
# 8 workers: the check that a sim.World partition shares no unmediated
# state with another. `make check` runs this script after its own gates.
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

# insert FILE ANCHOR TEXT adds TEXT as a new line after the one line of
# FILE (relative to the tree) that contains ANCHOR.
insert() {
	n="$(grep -cF -- "$2" "$TREE/$1" || true)"
	if [ "$n" != 1 ]; then
		echo "mutation does not apply: $n lines of $1 contain: $2"
		broken=1
		return 0
	fi
	awk -v anchor="$2" -v text="$3" '{ print } index($0, anchor) { print text }' \
		"$TREE/$1" >"$TMP/insert" && cp "$TMP/insert" "$TREE/$1"
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

if [ $# -eq 0 ]; then
	set -- shared-pointer shared-global walltime
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
