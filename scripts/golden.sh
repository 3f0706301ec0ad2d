#!/bin/sh
# golden.sh regenerates the checked-in experiment outputs that
# TestGoldenOutputs (internal/experiments) compares byte for byte: every
# internal/experiments/testdata/golden/<id>.txt is rewritten with the
# stdout of `psbench -j 1 <id>`. `make golden` runs it. To put another
# experiment under the gate, create its (empty) <id>.txt and run it.
set -eu

cd "$(dirname "$0")/.."

dir=internal/experiments/testdata/golden
PSBENCH_BIN="$(mktemp)"
trap 'rm -f "$PSBENCH_BIN"' EXIT
go build -o "$PSBENCH_BIN" ./cmd/psbench
for f in "$dir"/*.txt; do
	id="$(basename "$f" .txt)"
	echo "== $id"
	"$PSBENCH_BIN" -j 1 "$id" >"$f"
done
git status --short -- "$dir"
