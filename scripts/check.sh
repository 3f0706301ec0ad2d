#!/bin/sh
# check.sh is the repository's expanded tier-1 verification (see
# ROADMAP.md): build, vet, the pslint determinism linters, the full test
# suite (root module and the nested bench/ module), gofmt, the one-path
# and byte-identity gates, short FuzzDecap, FuzzCTR, FuzzParseScript,
# FuzzEventStore and FuzzDecode runs, and race tests on the
# concurrency-bearing packages. `make check` runs it, and so does CI —
# there is no second copy of these steps in .github/workflows/ci.yml.
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# The repository's own files only: bench/run.sh keeps a Go cache and
# GOPATH under .bench_build/.
echo "== gofmt -l (no file listed)"
unformatted="$(git ls-files --cached --others --exclude-standard '*.go' | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
	echo "gofmt would rewrite:"
	echo "$unformatted"
	exit 1
fi

# One invocation covers every package (./... includes internal/obs and
# internal/faults); the JSON report then feeds the baseline staleness
# check, which fails if pslint-baseline.json carries waivers that no
# longer match anything.
echo "== pslint (determinism contract, all packages)"
PSLINT_REPORT="$(mktemp)"
trap 'rm -f "$PSLINT_REPORT"' EXIT
go run ./cmd/pslint -json-out "$PSLINT_REPORT" ./...

echo "== pslint baseline staleness"
go run ./cmd/pslint -report-stale "$PSLINT_REPORT"

echo "== go test ./..."
go test ./...

# bench/ is a nested module, invisible to the root ./... patterns.
echo "== bench module: go vet + go test"
(cd bench && go vet ./... && go test ./...)

echo "== fuzz smoke (FuzzDecap, FuzzCTR, FuzzParseScript, FuzzEventStore, FuzzDecode, 5s each)"
go test -run '^$' -fuzz FuzzDecap -fuzztime 5s ./internal/ipsec
go test -run '^$' -fuzz FuzzCTR -fuzztime 5s ./internal/ipsec
go test -run '^$' -fuzz FuzzParseScript -fuzztime 5s ./internal/ctrl
go test -run '^$' -fuzz FuzzEventStore -fuzztime 5s ./internal/sim
go test -run '^$' -fuzz FuzzDecode -fuzztime 5s ./internal/packet

# A router is stood up and measured in one place, the facade's New and
# Run: the paper's figures and the examples may not assemble their own
# (tests may: hand-built routers are their differential), and bench/ is
# its own module with its own rules.
echo "== one path: core.New only in packetshader.go; no measurement callbacks in experiments or examples; one §4 worker loop; one decoder"
onepath="$(git grep -n 'core\.New(' -- '*.go' ':!*_test.go' ':!bench/' | cut -d: -f1)"
if [ "$onepath" != packetshader.go ]; then
	echo "core.New( must have exactly one caller, in packetshader.go; found in:"
	echo "$onepath"
	exit 1
fi
if git grep -n 'ResetMeasurement\|OnComplete' -- internal/experiments examples ':!*_test.go'; then
	echo "experiments and examples measure through Instance.Run and tap through Instance.TapTx"
	exit 1
fi
# The §4 figures likewise share one harness and one worker loop.
if [ "$(git grep -c 'env\.Go(' -- internal/experiments/pktio.go | cut -d: -f2)" != 1 ]; then
	echo "internal/experiments/pktio.go spawns workers in one place, ioHarness (one env.Go running ioWorkerLoop)"
	exit 1
fi
# There is one frame decoder, packet.Decoder.Decode. DecodeFast is its
# alias for the frozen bench/ module and nothing else may name it.
decodefast="$(git grep -n 'DecodeFast' -- '*.go' ':!bench/' | grep -v '^internal/packet/decode\.go:' || true)"
if [ -n "$decodefast" ]; then
	echo "DecodeFast is bench/'s name for packet.Decoder.Decode; call Decode:"
	echo "$decodefast"
	exit 1
fi

echo "== trace/metrics determinism (byte-identical across runs)"
go test -count=1 -run 'TestObsOutputByteIdenticalAcrossRuns|TestObsSpansCoverGPUAndPCIeBusyTime' ./internal/experiments

echo "== fault determinism: scenario and hooks run-twice identical, plan delivery exact"
go test -count=1 -run 'TestFaultScenarioDeterministicAndShaped|TestFaultRunsDeterministic|TestControllerDeliversPlanAtScheduledTimes|TestControllerPCIeRetrainRestore' ./internal/experiments ./internal/core ./internal/ctrl

echo "== parallel harness: -j 8 byte-identical to -j 1"
go test -count=1 -run 'TestParallelOutputByteIdenticalToSerial|TestRunMultipleIDsMatchesConcatenation' ./internal/experiments

echo "== partitioned world: -p 8 byte-identical to -p 1"
go test -count=1 -run 'TestFabricByteIdenticalAcrossPartitionWorkers|TestLeafSpineByteIdenticalAcrossPartitionWorkers|TestWorldByteIdenticalAcrossWorkers' ./internal/experiments ./internal/sim
PSBENCH_BIN="$(mktemp)"
go build -o "$PSBENCH_BIN" ./cmd/psbench
"$PSBENCH_BIN" fabric cluster leafspine -metrics -p 1 >/tmp/psbench-p1.$$ 2>/dev/null
"$PSBENCH_BIN" fabric cluster leafspine -metrics -p 8 >/tmp/psbench-p8.$$ 2>/dev/null
cmp /tmp/psbench-p1.$$ /tmp/psbench-p8.$$
rm -f /tmp/psbench-p1.$$ /tmp/psbench-p8.$$

echo "== pshaderd replay: control script byte-identical across runs"
PSHADER_BIN="$(mktemp)"
go build -o "$PSHADER_BIN" ./cmd/pshader
for i in 1 2; do
  "$PSHADER_BIN" -app ipv4 -prefixes 5000 -fib dynamic \
    -ctrl scripts/pshaderd-demo.psc -warmup 2ms -duration 6ms \
    -metrics -trace /tmp/pshaderd-trace$i.$$ >/tmp/pshaderd-run$i.$$ 2>/dev/null
done
cmp /tmp/pshaderd-run1.$$ /tmp/pshaderd-run2.$$
cmp /tmp/pshaderd-trace1.$$ /tmp/pshaderd-trace2.$$
rm -f "$PSHADER_BIN" /tmp/pshaderd-run[12].$$ /tmp/pshaderd-trace[12].$$

echo "== churn experiment: run-twice byte-identical"
"$PSBENCH_BIN" churn >/tmp/psbench-churn1.$$ 2>/dev/null
"$PSBENCH_BIN" churn >/tmp/psbench-churn2.$$ 2>/dev/null
cmp /tmp/psbench-churn1.$$ /tmp/psbench-churn2.$$
rm -f "$PSBENCH_BIN" /tmp/psbench-churn[12].$$

echo "== go test -race (sim, core, ctrl, cluster, pktio, obs, faults)"
go test -race ./internal/sim ./internal/core ./internal/ctrl ./internal/cluster ./internal/pktio ./internal/obs ./internal/faults

echo "== go test -race -short (parallel experiment harness)"
go test -race -short ./internal/experiments

echo "== bench smoke (one iteration of the key benchmarks, pprof to profiles/)"
mkdir -p profiles
go test -run '^$' -bench 'BenchmarkFig5Batch$|BenchmarkRouterIPv4GPU$|BenchmarkLeafSpineScale/l128$' -benchtime 1x \
	-cpuprofile profiles/bench-smoke.cpu.pprof \
	-memprofile profiles/bench-smoke.mem.pprof .
# BenchmarkEventStore asserts zero allocations per pop+push at every
# population before it times anything.
go test -run '^$' -bench 'BenchmarkEventStore' -benchtime 1x ./internal/sim

echo "== all checks passed"
