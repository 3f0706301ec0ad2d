#!/bin/sh
# golden.sh regenerates every checked-in output of the byte-identity
# gate, and is the only writer of them:
#   - internal/experiments/testdata/golden/<id>.txt for every id that
#     `psbench -list` prints: the stdout of `psbench -j 1 -metrics <id>`,
#     which TestGoldenOutputs compares (files of ids no longer listed are
#     removed);
#   - cmd/pshader/testdata/pshaderd-demo.txt, the stdout of the pshaderd
#     demo replay, and pshaderd-demo.trace.sha256, the SHA-256 of its
#     trace, which scripts/check.sh compares with the same command line.
# `make golden` runs it. Run it only when a change moves results on
# purpose, and review the diff: it is the list of numbers that moved.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
go build -o "$TMP/psbench" ./cmd/psbench
go build -o "$TMP/pshader" ./cmd/pshader

dir=internal/experiments/testdata/golden
rm -f "$dir"/*.txt
for id in $("$TMP/psbench" -list); do
	echo "== $id"
	"$TMP/psbench" -j 1 -metrics "$id" >"$dir/$id.txt"
done

echo "== pshaderd-demo"
out=cmd/pshader/testdata
"$TMP/pshader" -app ipv4 -prefixes 5000 -fib dynamic \
	-ctrl scripts/pshaderd-demo.psc -warmup 2ms -duration 6ms \
	-metrics -trace "$TMP/pshaderd-demo.trace" >"$out/pshaderd-demo.txt"
(cd "$TMP" && sha256sum pshaderd-demo.trace) >"$out/pshaderd-demo.trace.sha256"

git status --short -- "$dir" "$out"
