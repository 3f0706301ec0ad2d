#!/bin/sh
# check.sh is the repository's expanded tier-1 verification (see
# ROADMAP.md): build, vet (also for arm64, the build without assembly,
# and for 386, the 32-bit build), gofmt, the fused multiply-add gate on
# the arm64 and ppc64le compile output, one pslint run (the determinism
# linters over every package, failing on any finding), the full test suite (root module and the nested bench/
# module; TestGoldenOutputs, the paper checks over its run and the
# Example functions included), the 32-bit tests of pcap, apps and ipsec
# and the 32-bit golden outputs and paper checks, the one-path
# gates (scripts/onepath.sh), the byte-identity gate's second half (the pshaderd replay
# against its checked-in stdout and trace digest), pshader's exit
# status on a capture it cannot write, short FuzzDecap,
# FuzzCTR, FuzzHMACSHA1, FuzzPcapReader, FuzzParseScript,
# FuzzEventStore, FuzzServerBusy, FuzzDecode, FuzzChecksum,
# FuzzDynamicTable, FuzzApplyMods and FuzzFacadeOptions runs,
# race tests on the concurrency-bearing packages and on the golden
# subset (table1 launch fig2 table3 fig5 fabric), and scripts/gates.sh,
# which shows the race, pslint, paper-point, packet-ledger, engine,
# route-determinism, TX-oracle, event-store, fabric-model, fabric-ledger,
# server-span, golden, replay, FuzzCTR, FuzzChecksum, busy-time,
# one-path, fabric-oracle, FuzzHMACSHA1, fused-multiply-add and GPU
# backoff checks failing on mutations of their own kind.
# `make check` runs it, and so does CI — there is no second copy of
# these steps in .github/workflows/ci.yml.
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# internal/ipsec's batched SHA-1 and VAES keystream are amd64
# assembly; an arm64 vet compiles and checks the build that has only the
# standard library's paths.
echo "== GOARCH=arm64 go vet ./..."
GOARCH=arm64 go vet ./...

# A constant or conversion that overflows a 32-bit int fails here.
echo "== GOARCH=386 go vet ./..."
GOARCH=386 go vet ./...

# The repository's own files only: bench/run.sh keeps a Go cache and
# GOPATH under .bench_build/.
echo "== gofmt -l (no file listed)"
unformatted="$(git ls-files --cached --others --exclude-standard '*.go' | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
	echo "gofmt would rewrite:"
	echo "$unformatted"
	exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# The Go spec lets a compiler fuse x*y + z into one rounding. amd64
# never does; arm64 and ppc64le do, and one ulp of virtual time can move
# an event. Virtual-time code therefore rounds each product that feeds
# an add with an explicit float64(…) conversion, and this gate fails on
# any fused multiply-add the compiler still emits for a non-test package
# under internal/.
echo "== no fused multiply-add in internal/ (arm64, ppc64le)"
for arch in arm64 ppc64le; do
	GOARCH=$arch go build -trimpath -gcflags=-S ./internal/... 2>"$TMP/asm-$arch.txt"
	fused="$(awk '$4 ~ /^FN?M(ADD|SUB)[DS]?$/ && $3 ~ /^\(packetshader\/internal\// { print $3 }' "$TMP/asm-$arch.txt" | sort -u)"
	if [ -n "$fused" ]; then
		echo "$arch fuses a multiply-add at (wrap the product in float64(…)):"
		echo "$fused"
		exit 1
	fi
done

# One run of the whole suite over every package: any finding fails it.
echo "== pslint (determinism contract, all packages)"
go run ./cmd/pslint ./...

echo "== go test ./..."
go test ./...

# Which crypto paths this host runs: an arm whose CPUID or XCR0 bit is
# missing skips, and this line names the bit.
echo "== ipsec crypto paths on this host"
go test -count=1 -v -run 'TestCryptoPaths$' ./internal/ipsec | grep 'useX16'

# The 32-bit build, run natively: the packages that read hostile lengths
# or index by hash, every golden file byte for byte, and the paper
# checks, which read the same run's cells. It also runs ipsec.Batch's
# crypto/hmac path and AES.CTR's GCM path, the ones a host without
# AVX-512 or VAES takes.
echo "== GOARCH=386 go test (pcap, apps, ipsec; experiments: golden outputs and paper checks in full)"
GOARCH=386 go test ./internal/pcap ./internal/apps ./internal/ipsec
GOARCH=386 go test ./internal/experiments

# bench/ is a nested module, invisible to the root ./... patterns.
echo "== bench module: go vet + go test"
(cd bench && go vet ./... && go test ./...)

echo "== fuzz smoke (FuzzDecap, FuzzCTR, FuzzHMACSHA1, FuzzPcapReader, FuzzParseScript, FuzzEventStore, FuzzServerBusy, FuzzDecode, FuzzChecksum, FuzzDynamicTable, FuzzApplyMods, FuzzFacadeOptions, 5s each)"
go test -run '^$' -fuzz FuzzDecap -fuzztime 5s ./internal/ipsec
go test -run '^$' -fuzz FuzzCTR -fuzztime 5s ./internal/ipsec
go test -run '^$' -fuzz FuzzHMACSHA1 -fuzztime 5s ./internal/ipsec
go test -run '^$' -fuzz FuzzPcapReader -fuzztime 5s ./internal/pcap
go test -run '^$' -fuzz FuzzParseScript -fuzztime 5s ./internal/ctrl
go test -run '^$' -fuzz FuzzEventStore -fuzztime 5s ./internal/sim
go test -run '^$' -fuzz FuzzServerBusy -fuzztime 5s ./internal/sim
go test -run '^$' -fuzz FuzzDecode -fuzztime 5s ./internal/packet
go test -run '^$' -fuzz FuzzChecksum -fuzztime 5s ./internal/packet
go test -run '^$' -fuzz FuzzDynamicTable -fuzztime 5s ./internal/lookup/ipv4
go test -run '^$' -fuzz FuzzApplyMods -fuzztime 5s ./internal/openflow
go test -run '^$' -fuzz FuzzFacadeOptions -fuzztime 5s .

echo "== one path: core.New only in packetshader.go; no measurement callbacks in experiments; one §4 worker task, no fetch outside pktio, core and hw/nic; no goroutine process outside internal/sim; one decoder"
./scripts/onepath.sh

# The byte-identity gate is the checked-in outputs: TestGoldenOutputs
# (run by go test above) holds every experiment, and this step holds
# the pshaderd replay, whose trace (~88 MB) is checked in as a SHA-256
# line. scripts/golden.sh writes both and runs the same command line.
echo "== pshaderd replay: stdout and trace digest match cmd/pshader/testdata"
go build -o "$TMP/pshader" ./cmd/pshader
"$TMP/pshader" -app ipv4 -prefixes 5000 -fib dynamic \
	-ctrl scripts/pshaderd-demo.psc -warmup 2ms -duration 6ms \
	-metrics -trace "$TMP/pshaderd-demo.trace" >"$TMP/pshaderd-demo.txt" 2>/dev/null
cmp cmd/pshader/testdata/pshaderd-demo.txt "$TMP/pshaderd-demo.txt"
digest="$(pwd)/cmd/pshader/testdata/pshaderd-demo.trace.sha256"
(cd "$TMP" && sha256sum -c --quiet "$digest")
rm -f "$TMP/pshaderd-demo.trace"

# A capture that cannot be written fails the run, as a trace does.
echo "== pshader -pcap /dev/full exits 1 and does not say written"
status=0
"$TMP/pshader" -app ipv4 -prefixes 2000 -warmup 0 -duration 1ms \
	-pcap /dev/full >/dev/null 2>"$TMP/pcap-full.txt" || status=$?
if [ "$status" != 1 ] || grep -q 'pcap written' "$TMP/pcap-full.txt"; then
	echo "pshader -pcap /dev/full exited $status:"
	cat "$TMP/pcap-full.txt"
	exit 1
fi

echo "== go test -race (sim, core, ctrl, cluster, pktio, obs, faults)"
go test -race ./internal/sim ./internal/core ./internal/ctrl ./internal/cluster ./internal/pktio ./internal/obs ./internal/faults

echo "== go test -race -short (golden subset: table1 launch fig2 table3 fig5 fabric in one run, jobs at -j 8, worlds at -p 8, and their paper and model checks)"
go test -race -short ./internal/experiments

# Each gate mutation must fail its gate: a forwarding counter shared by
# every fabric node (through a pointer, then as a package variable)
# fails the cluster race test, time.Now() in internal/sim, a map range
# feeding Result.Print, a bare sim.Duration(500) and a MapPoints job
# writing a package variable each fail their pslint analyzer, a
# host-to-device copy 1.3 times too slow fails table1's paper points, a
# Buf kept after an app drop fails the packet ledger, a ctrl command
# callback blocking on a worker fails the engine's scheduler-context
# check, a global math/rand draw fails the route tests, VLB spread over
# n-1 intermediates fails the fabric's model check and golden file, an
# uncounted node drop fails the fabric ledger, a ScheduleChain that
# stops counting its services fails the server span test and a golden
# util line, a worker reading the chunk cap at each fetch rather than
# once per round and a link-up that leaves the RX queues down fail the
# pshaderd replay, an AES-CTR counter starting at 2 fails FuzzCTR, an
# Internet checksum that drops the carry between its 64-bit words
# fails FuzzChecksum, a server that counts service when it is booked
# fails the golden run's util and pipeline share checks and
# FuzzServerBusy, a second core.New( caller, a goroutine process in
# table1 and a FetchNow call in a §4 driver fail the one-path gates, model.Cycles' product unwrapped from
# its float64(…) fails the fused-multiply-add gate, a Link.flush that
# publishes every posted message, a leaf that skips its live-slot scan
# after a link went down and an inbox peak that counts a batch starting
# at the arrival as waiting fail the fabric's goroutine oracle, windows
# off the lookahead grid fail the golden files, churn writing the
# shared BGP fixture fails fig11a's golden file, a SHA-1 lane reading
# another's message fails FuzzHMACSHA1 and fig11d's golden tx.digest,
# and a GPU hold-out doubling past its cap fails the backoff test.
echo "== gates (scripts/gates.sh: each mutation caught by its gate)"
./scripts/gates.sh

echo "== bench smoke (one iteration of the key benchmarks, pprof to profiles/)"
mkdir -p profiles
go test -run '^$' -bench 'BenchmarkFig5Batch$|BenchmarkRouterIPv4GPU$|BenchmarkLeafSpineScale/l128$' -benchtime 1x \
	-cpuprofile profiles/bench-smoke.cpu.pprof \
	-memprofile profiles/bench-smoke.mem.pprof .
# BenchmarkEventStore asserts zero allocations per pop+push at every
# population before it times anything.
go test -run '^$' -bench 'BenchmarkEventStore' -benchtime 1x ./internal/sim

echo "== all checks passed"
