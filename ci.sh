#!/bin/sh
# Tier-1 verification gate: vet, build, tests (shuffled), the race
# detector, a coverage floor on the engine + memory hierarchy, and a short
# fuzz smoke of the engine-vs-oracle differential tester.
# Run before every commit; CI runs exactly this script.
set -eux

go vet ./...
# Formatting gate: gofmt -l prints every file whose layout differs.
test -z "$(gofmt -l .)"
go build ./...
# The cache hit path stays inlined: (*Cache).Lookup sits a few units under
# the compiler's inlining budget, and one more field read on it would turn
# every L1 and L2 hit of System.Read and System.Write into a call without
# any test noticing. Each .Lookup( call site in internal/mem/system.go must
# be reported as inlined; go build replays these diagnostics from its
# cache, so the step is cheap.
LOOKUP_SITES="$(grep -c '\.Lookup(' internal/mem/system.go)"
LOOKUP_INLINED="$(go build -gcflags=-m ./internal/mem 2>&1 | grep -c 'inlining call to (\*Cache)\.Lookup' || true)"
test "$LOOKUP_INLINED" -eq "$LOOKUP_SITES"
# Every function declared in a non-test file is linked into some program
# (each built with inlining off, so none hides inside a caller) or is
# allowlisted with a reason in scripts/unlinked/allowlist.txt. A function
# that only its own package's tests call belongs in a _test.go file.
go run ./scripts/unlinked
# -timeout turns a wedged test (deadlocked worker, unbounded retry) into
# a failure instead of a hung CI run.
go test -timeout 10m -shuffle=on ./...
go test -timeout 15m -race ./...
# bench/ is a module of its own (it replaces tlbmap with ../), so the
# ./... patterns above never reach its tests.
(cd bench && go test -timeout 10m ./...)

# Coverage floor: the simulator core (engine + memory hierarchy) is what
# every reported number rests on; its statement coverage must not drop
# below 95.0%.
go test -coverprofile=/tmp/tlbmap-cover.out -coverpkg=./internal/sim,./internal/mem ./internal/sim ./internal/mem ./internal/check
go tool cover -func=/tmp/tlbmap-cover.out | awk '
	/^total:/ {
		sub(/%/, "", $NF)
		printf "sim+mem coverage: %s%%\n", $NF
		if ($NF + 0 < 95.0) {
			printf "coverage gate FAILED: %s%% < 95.0%%\n", $NF
			exit 1
		}
	}'

# Fault smoke: every injection scenario end-to-end through the CLI with
# the runtime invariant checkers armed. Faults may perturb timing and
# detection only — an invariant violation here means one leaked into
# architectural state.
for sc in shootdown migflush scandrop sampleloss preempt decay all; do
	go run ./cmd/tlbmap -bench CG -class S -mech SM -check -faults "$sc:1" >/dev/null
	go run ./cmd/tlbmap -bench CG -class S -mech HM -check -faults "$sc:1" >/dev/null
done

# Performance gate and bench smoke. scripts/bench.sh check builds the
# parent revision (HEAD for a dirty tree, otherwise HEAD~1) next to this
# tree and runs the gated micro-benchmarks, BenchmarkParallelSuite/workers2
# and the mapperd selftest on both sides in alternation; it fails when a
# case's median current/parent throughput ratio drops below 0.75. The next
# two lines run one iteration of benchmarks the gate does not time, so a
# change that breaks them fails here rather than on the next manual
# scripts/bench.sh run, and the zero-allocation steady-state invariants
# (plain tests that already ran above) are re-checked in isolation with
# clear names. Full timing is still a manual scripts/bench.sh run.
scripts/bench.sh check
go test -run '^$' -bench BenchmarkDetectors -benchtime 1x ./internal/comm >/dev/null
go test . -run '^$' -bench BenchmarkParallelSuite -benchtime 1x >/dev/null
go test -run 'TestSteadyStateZeroAllocs' ./internal/sim
# The serve-plane analogue: the wire hot path (parse, batch copy, enqueue,
# response build) must stay allocation-free per event at steady state.
go test -run 'TestIngestSteadyStateZeroAllocs' ./internal/serve
# The cross-plane differential: a mapperd tenant fed an engine SM run's
# access stream must detect exactly the engine's matrix — every kernel at
# class S, and the NPB kernels at class W (skipped only under -short).
go test -run 'TestCrossPlaneDifferential' ./internal/serve

# Serve smoke: the mapping daemon end-to-end over real TCP — a short
# synthetic-fleet burst through cmd/mapperd's selftest, which exits
# non-zero on any hangup, ERR response, quarantine, unclean drain, or p99
# query latency above the deadline. The grep re-asserts the drain banner so
# a silently-truncated run cannot pass.
SERVE_SMOKE="$(go run ./cmd/mapperd -selftest -conns 64 -tenants 8 -threads 8 \
	-events 200 -batch 25 -query-every 4 -seed 1)"
echo "$SERVE_SMOKE" | grep -q 'drained cleanly'

# Durable serve smoke: the same fleet against a durable daemon under
# -sync always, so every ack waits for WAL group commit (burst acks behind
# one covering fsync, leader/follower commit) over real TCP.
DURABLE_DIR="$(mktemp -d)"
DURABLE_SMOKE="$(go run ./cmd/mapperd -selftest -dir "$DURABLE_DIR" -sync always \
	-conns 64 -tenants 8 -threads 8 -events 200 -batch 25 -query-every 0 -seed 4)"
echo "$DURABLE_SMOKE" | grep -q 'drained cleanly'
rm -rf "$DURABLE_DIR"

# Reconnect smoke: the same fleet sequenced, with every connection
# deliberately dropping and resuming mid-stream over real TCP. The selftest
# exits non-zero if resume double-applies or loses a single event.
RECONNECT_SMOKE="$(go run ./cmd/mapperd -selftest -conns 64 -tenants 8 -threads 8 \
	-events 200 -batch 25 -query-every 4 -seed 2 -reconnect)"
echo "$RECONNECT_SMOKE" | grep -q 'drained cleanly'

# Crash smoke: durability end-to-end at the process level. A durable
# daemon is SIGKILLed mid-ingest — no drain, no final snapshot, possibly a
# torn record at the WAL tail — and a restart must recover every tenant
# (snapshot restore + WAL-tail replay) under a timeout. go build, not
# go run: SIGKILL must land on mapperd itself, not a wrapper.
CRASH_DIR="$(mktemp -d)"
CRASH_BIN="$(mktemp -u)"
go build -o "$CRASH_BIN" ./cmd/mapperd
"$CRASH_BIN" -selftest -conns 64 -tenants 8 -threads 8 -events 200000 \
	-batch 50 -query-every 0 -seed 3 -dir "$CRASH_DIR" -sync interval &
CRASH_PID=$!
sleep 2
kill -9 "$CRASH_PID" || true
wait "$CRASH_PID" || true
timeout 60 "$CRASH_BIN" -verify-recovery -dir "$CRASH_DIR" | grep -q 'recovery OK'
rm -rf "$CRASH_DIR" "$CRASH_BIN"

# Scale smoke: one 256-core cell of the manycore scale study end-to-end
# through the CLI — hierarchical topology generation, SM detection with
# 256 threads into a 256×256 matrix and the multilevel mapper all on the
# real path. timeout turns a scalability regression (a
# quadratic path sneaking back in) into a failure instead of a hang.
timeout 300 go run ./cmd/experiments -exp scale -class S -bench CG -cores 256 -mappers multilevel,auto >/dev/null

# Fuzz smoke: run the differential fuzz targets briefly on top of their
# committed corpora. Full fuzzing is manual (go test -fuzz ...).
go test ./internal/check -run=NONE -fuzz='FuzzEngineVsOracle$' -fuzztime=10s
go test ./internal/check -run=NONE -fuzz=FuzzEngineVsOracleFaults -fuzztime=10s
go test ./internal/mapping -run=NONE -fuzz=FuzzMultilevelVsBlossom -fuzztime=10s
go test ./internal/wal -run=NONE -fuzz=FuzzWALRecovery -fuzztime=10s
# Snapshot matrix decoder: arbitrary bytes never panic or allocate past
# the expected thread count, and decode∘encode round-trips.
go test ./internal/comm -run=NONE -fuzz=FuzzDecodeMatrix -fuzztime=10s
