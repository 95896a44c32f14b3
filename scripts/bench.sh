#!/bin/sh
# Benchmark harness: runs the engine/detector micro-benchmarks, the
# end-to-end parallel suite, and the mapperd serving selftest, then renders
# the results as BENCH_engine.json and BENCH_serve.json (repo root). Commit
# the refreshed files alongside any change that claims a performance delta,
# so regressions show up in review as a diff.
#
# Usage:
#
#	scripts/bench.sh [count]
#	scripts/bench.sh check
#
# count is the -count passed to the end-to-end suite (default 3; the
# committed number is the minimum across repetitions, which is the standard
# way to suppress scheduler noise on a shared machine).
#
# "check" compares the working tree against a comparison revision on this
# host, interleaved. The revision is HEAD when the tree has local changes,
# otherwise HEAD~1 (the parent of the commit under test); a missing
# revision is an error. check extracts the revision with git archive,
# builds each gated package's test binary and cmd/mapperd once per side,
# and then runs every gated case on both sides in alternation, PAIRS
# pairs, with the same flags (a side's result in a pair is the best of a
# few runs for the short cases). The gated cases are BenchmarkEngine,
# BenchmarkMultilevel, BenchmarkMatrixAdd, the serve-plane micros
# (BenchmarkIngestParse, BenchmarkRecovery), BenchmarkParallelSuite/workers2
# (harness.RunPerformance at class S) and the mapperd selftest's event and
# query rates. A case's ratio in one pair is current/parent events/sec, or
# parent/current ns/op for a case that reports no events/sec; check fails
# when a case's median ratio falls below 0.75. Cases present on one side
# only are listed and not gated. Absolute numbers on a shared host move by
# tens of percent within minutes, so check never compares against the
# committed files; only adjacent runs on the same host are compared.
#
# Every rendered file is stamped with the measuring host (CPU model + core
# count) and commit, so committed numbers say where they were measured.
# Frozen baseline blocks carry their own host_id for the same reason.
set -eu

cd "$(dirname "$0")/.."
OUT="BENCH_engine.json"
SERVE_OUT="BENCH_serve.json"

host_id() {
	_model="$(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
	echo "${_model:-unknown-cpu} x$(nproc 2>/dev/null || echo 1)"
}

commit_id() {
	_c="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
	git diff --quiet HEAD 2>/dev/null || _c="$_c-dirty"
	echo "$_c"
}

# The fixed fleet shape both modes run, so committed and current numbers
# are comparable: 256 connections over 16 tenants, 1000 events each. It is
# a flag list, expanded unquoted.
SELFTEST="-selftest -conns 256 -tenants 16 -threads 8 -events 1000 -batch 50 -query-every 4 -seed 1"

serve_selftest() {
	go run ./cmd/mapperd $SELFTEST
}

# serve_best runs the selftest N times and keeps the BENCH line with the
# best events/sec (best-of-N suppresses scheduler noise, as elsewhere).
serve_best() {
	_n="$1"
	_best=""
	_best_evs=0
	_i=0
	while [ "$_i" -lt "$_n" ]; do
		_line="$(serve_selftest | tee /dev/stderr | grep '^BENCH ')"
		_evs="$(echo "$_line" | sed -n 's/.*events_per_sec=\([0-9]*\).*/\1/p')"
		if [ "${_evs:-0}" -gt "$_best_evs" ]; then
			_best_evs="$_evs"
			_best="$_line"
		fi
		_i=$((_i + 1))
	done
	echo "$_best"
}

# PAIRS is the number of interleaved parent/current pairs check runs.
PAIRS=7

# run_case SIDE PAIR DIR CMD... runs one gated command in DIR (a package
# directory of SIDE's tree) and appends its benchmark lines to $RAW,
# prefixed with the side and pair. A failing test binary fails check; the
# selftest's own verdict (drain, latency deadline) is the serve smoke's
# job in ci.sh, so only its BENCH line is used here.
run_case() {
	_side="$1"
	_pair="$2"
	_dir="$3"
	shift 3
	if ! (cd "$_dir" && "$@") >"$WORK/out" 2>&1; then
		case "$1" in
		*/mapperd) ;;
		*)
			cat "$WORK/out" >&2
			echo "bench check: $_side tree: $* failed" >&2
			exit 1
			;;
		esac
	fi
	awk -v side="$_side" -v pair="$_pair" '
		/^Benchmark/ { print side, pair, $0 }
		/^BENCH / {
			# The mapperd selftest line: gate its throughputs.
			for (i = 2; i <= NF; i++)
				if (split($i, kv, "=") == 2 && kv[1] ~ /_per_sec$/)
					printf "%s %s MapperdSelftest/%s 1 %s events/sec\n", side, pair, kv[1], kv[2]
		}' "$WORK/out" >>"$RAW"
}

# The gated cases as DIR:BINARY:BENCHMARK:ITERATIONS:COUNT, one benchmark
# per invocation so that the parent and current runs of a case are
# adjacent in time; fixed iteration counts give both sides the same work.
# A side's result in a pair is the best of its COUNT runs: on a shared
# host a short run lands in a slow phase often enough to flip a median of
# single runs. The mapperd selftest runs after them. BenchmarkWALGroupCommit
# is deliberately absent: it is fsync-bound, and fsync latency on shared
# infrastructure swings far more than the 25% regression budget — it stays
# a full-mode (documentation) number.
GATED="internal/sim:sim.test:BenchmarkEngine/null:10x:2
internal/sim:sim.test:BenchmarkEngine/SM:10x:2
internal/sim:sim.test:BenchmarkEngine/HM:10x:2
internal/sim:sim.test:BenchmarkEngine/oracle:10x:2
internal/mapping:mapping.test:BenchmarkMultilevel/threads256:1x:1
internal/mapping:mapping.test:BenchmarkMultilevel/threads1024:1x:1
internal/comm:comm.test:BenchmarkMatrixAdd/n128:100000000x:3
internal/comm:comm.test:BenchmarkMatrixAdd/n1024:100000000x:3
internal/serve:serve.test:BenchmarkIngestParse:500x:2
internal/serve:serve.test:BenchmarkRecovery/workers1:50x:2
internal/serve:serve.test:BenchmarkRecovery/workers4:50x:2
.:tlbmap.test:BenchmarkParallelSuite/workers2:1x:2
selftest"

# gated_case SPEC SIDE PAIR TREE BIN runs one gated case.
gated_case() {
	if [ "$1" = selftest ]; then
		run_case "$2" "$3" "$4" "$5/mapperd" $SELFTEST
		return
	fi
	_dir="$(echo "$1" | cut -d: -f1)"
	_bin="$(echo "$1" | cut -d: -f2)"
	_bench="$(echo "$1" | cut -d: -f3)"
	_n="$(echo "$1" | cut -d: -f4)"
	_count="$(echo "$1" | cut -d: -f5)"
	run_case "$2" "$3" "$4/$_dir" "$5/$_bin" -test.run '^$' \
		-test.bench "^$_bench\$" -test.benchtime "$_n" -test.count "$_count"
}

# build_side TREE BIN builds the gated binaries of one tree into BIN.
build_side() {
	mkdir -p "$2"
	for _p in sim mapping comm serve; do
		(cd "$1" && go test -c -o "$2/$_p.test" "./internal/$_p")
	done
	(cd "$1" && go test -c -o "$2/tlbmap.test" . && go build -o "$2/mapperd" ./cmd/mapperd)
}

if [ "${1:-}" = "check" ]; then
	# Untracked files count as local changes: they are part of the tree
	# under test but not of HEAD.
	if [ -n "$(git status --porcelain)" ]; then
		BASE_REV=HEAD
	else
		BASE_REV=HEAD~1
	fi
	BASE_SHA="$(git rev-parse --verify --quiet "$BASE_REV^{commit}")" || {
		echo "bench check: comparison revision $BASE_REV does not exist" >&2
		exit 1
	}
	WORK="$(mktemp -d)"
	trap 'rm -rf "$WORK"' EXIT
	RAW="$WORK/raw"
	mkdir "$WORK/base"
	git archive "$BASE_SHA" | tar -x -C "$WORK/base"
	echo "== bench check: working tree vs $BASE_REV ($BASE_SHA), $PAIRS interleaved pairs ==" >&2
	build_side "$PWD" "$WORK/bin-cur"
	build_side "$WORK/base" "$WORK/bin-base"
	_k=1
	while [ "$_k" -le "$PAIRS" ]; do
		_c=0
		for _spec in $GATED; do
			# Alternate which side runs first, so a drift in host speed
			# favours neither.
			_c=$((_c + 1))
			if [ $(((_k + _c) % 2)) -eq 0 ]; then
				gated_case "$_spec" base "$_k" "$WORK/base" "$WORK/bin-base"
				gated_case "$_spec" cur "$_k" "$PWD" "$WORK/bin-cur"
			else
				gated_case "$_spec" cur "$_k" "$PWD" "$WORK/bin-cur"
				gated_case "$_spec" base "$_k" "$WORK/base" "$WORK/bin-base"
			fi
		done
		_k=$((_k + 1))
	done
	awk '
		{
			side = $1; pair = $2; name = $3
			sub(/-[0-9]+$/, "", name)
			# Keep the best run of each side in each pair.
			for (i = 4; i < NF; i++) {
				v = $i + 0
				if ($(i + 1) == "events/sec" && (!((side, name, pair) in evs) || v > evs[side, name, pair]))
					evs[side, name, pair] = v
				if ($(i + 1) == "ns/op" && (!((side, name, pair) in ns) || v < ns[side, name, pair]))
					ns[side, name, pair] = v
			}
			if (!((side, name) in seen)) {
				seen[side, name] = 1
				if (!(name in order)) { order[name] = ++n; names[n] = name }
			}
			if (pair + 0 > pairs) pairs = pair + 0
		}
		function median(a, m,    i, j, t) {
			for (i = 2; i <= m; i++)
				for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
			return (m % 2) ? a[(m + 1) / 2] : (a[m / 2] + a[m / 2 + 1]) / 2
		}
		END {
			fail = 0
			printf "%-40s %14s %14s %7s  %s\n", "case", "current", "parent", "median", "pair ratios"
			for (c = 1; c <= n; c++) {
				name = names[c]
				if (!(("cur", name) in seen) || !(("base", name) in seen)) {
					printf "%-40s only in the %s tree, not gated\n", name, \
						(("cur", name) in seen) ? "current" : "parent"
					continue
				}
				m = 0; mc = 0; mb = 0; rates = 1; list = ""
				for (k = 1; k <= pairs; k++)
					if (!(("cur", name, k) in evs) || !(("base", name, k) in evs)) rates = 0
				for (k = 1; k <= pairs; k++) {
					if (rates) {
						cv = evs["cur", name, k]; bv = evs["base", name, k]
						if (bv <= 0) continue
						r = cv / bv
					} else {
						cv = ns["cur", name, k]; bv = ns["base", name, k]
						if (cv <= 0) continue
						r = bv / cv
					}
					m++; ratio[m] = r; cur[m] = cv; base[m] = bv
					list = list sprintf(" %.2f", r)
				}
				if (m == 0) {
					printf "bench check FAILED: %s has no comparable runs\n", name
					fail = 1
					continue
				}
				med = median(ratio, m)
				printf "%-40s %14.0f %14.0f %6.2fx %s (%s)\n", name, median(cur, m), median(base, m), \
					med, list, rates ? "events/sec" : "ns/op"
				if (med < 0.75) {
					printf "bench check FAILED: %s runs at %.0f%% of the parent (median of %d pairs)\n", \
						name, med * 100, m
					fail = 1
				}
			}
			if (n == 0) { print "bench check FAILED: no benchmark output"; fail = 1 }
			if (fail) exit 1
			print "bench check passed"
		}' "$RAW" >&2
	exit 0
fi

COUNT="${1:-3}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "== micro: engine + detectors + matrix ==" >&2
go test -run '^$' -bench 'BenchmarkEngine|BenchmarkDetectors|BenchmarkMatrixAdd' -benchtime 2s \
	-benchmem ./internal/sim ./internal/comm | tee -a "$RAW" >&2

echo "== micro: multilevel mapper ==" >&2
go test -run '^$' -bench BenchmarkMultilevel -benchtime 2x \
	-benchmem ./internal/mapping | tee -a "$RAW" >&2

echo "== micro: serve fast path (wire parse, WAL group commit, recovery) ==" >&2
go test -run '^$' -bench 'BenchmarkIngestParse|BenchmarkWALGroupCommit|BenchmarkRecovery' \
	-benchtime 2x -benchmem ./internal/serve | tee -a "$RAW" >&2

echo "== end-to-end: parallel suite (count=$COUNT) ==" >&2
go test . -run '^$' -bench BenchmarkParallelSuite -benchtime 1x -count "$COUNT" \
	| tee -a "$RAW" >&2

# Render one JSON object per benchmark line. Repeated names (from -count)
# keep the minimum ns/op, the maximum events/sec, and the minimum
# bytes/allocs per op. The frozen baselines are the "before" of each
# optimization PR, kept verbatim with the host they were measured on, so
# the speedups stay reviewable next to the current numbers (and so "check"
# mode can rely on the top-level "benchmarks" key being unique). Baselines
# from before host stamping carry "unrecorded"; comparisons against them
# are qualitative only.
awk -v host="$(go env GOOS)/$(go env GOARCH)" -v hostid="$(host_id)" -v commit="$(commit_id)" '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		ns = ""; evs = ""; bpo = ""; apo = ""
		for (i = 2; i < NF; i++) {
			if ($(i + 1) == "ns/op") ns = $i
			if ($(i + 1) == "events/sec") evs = $i
			if ($(i + 1) == "B/op") bpo = $i
			if ($(i + 1) == "allocs/op") apo = $i
		}
		if (ns == "") next
		if (!(name in best_ns) || ns + 0 < best_ns[name] + 0) best_ns[name] = ns
		if (evs != "" && (!(name in best_evs) || evs + 0 > best_evs[name] + 0)) best_evs[name] = evs
		if (bpo != "" && (!(name in best_bpo) || bpo + 0 < best_bpo[name] + 0)) best_bpo[name] = bpo
		if (apo != "" && (!(name in best_apo) || apo + 0 < best_apo[name] + 0)) best_apo[name] = apo
		if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
	}
	END {
		printf "{\n  \"host\": \"%s\",\n", host
		printf "  \"host_id\": \"%s\",\n", hostid
		printf "  \"commit\": \"%s\",\n", commit
		printf "  \"baselines\": [\n"
		printf "    {\n"
		printf "      \"engine\": \"pre-overhaul (linear pick, map-backed hot state), commit f16175d\",\n"
		printf "      \"host_id\": \"unrecorded\",\n"
		printf "      \"frozen\": [\n"
		printf "        {\"name\": \"BenchmarkParallelSuite/workers1\", \"ns_per_op\": 801345119},\n"
		printf "        {\"name\": \"BenchmarkParallelSuite/workers2\", \"ns_per_op\": 710678623},\n"
		printf "        {\"name\": \"BenchmarkParallelSuite/workers4\", \"ns_per_op\": 774978408},\n"
		printf "        {\"name\": \"BenchmarkParallelSuite/workers8\", \"ns_per_op\": 800366018}\n"
		printf "      ]\n    },\n"
		printf "    {\n"
		printf "      \"engine\": \"pre-presence-index (pairwise HM scan on the host), commit 089ac8f\",\n"
		printf "      \"host_id\": \"unrecorded\",\n"
		printf "      \"frozen\": [\n"
		printf "        {\"name\": \"BenchmarkEngine/null\", \"ns_per_op\": 35141989, \"events_per_sec\": 6993351},\n"
		printf "        {\"name\": \"BenchmarkEngine/SM\", \"ns_per_op\": 37496853, \"events_per_sec\": 6554157},\n"
		printf "        {\"name\": \"BenchmarkEngine/HM\", \"ns_per_op\": 1051462224, \"events_per_sec\": 233732},\n"
		printf "        {\"name\": \"BenchmarkEngine/oracle\", \"ns_per_op\": 40159467, \"events_per_sec\": 6119609},\n"
		printf "        {\"name\": \"BenchmarkDetectors/HM/scan-full\", \"ns_per_op\": 8945, \"events_per_sec\": 111793},\n"
		printf "        {\"name\": \"BenchmarkDetectors/HM/scan-sparse\", \"ns_per_op\": 776.8, \"events_per_sec\": 1287321}\n"
		printf "      ]\n    },\n"
		printf "    {\n"
		printf "      \"engine\": \"pre-compile-and-replay (goroutine token passing, per-event apply), commit b792496\",\n"
		printf "      \"host_id\": \"Intel(R) Xeon(R) Processor @ 2.10GHz x1\",\n"
		printf "      \"note\": \"best of 3, interleaved with the current numbers on the same machine\",\n"
		printf "      \"frozen\": [\n"
		printf "        {\"name\": \"BenchmarkEngine/null\", \"ns_per_op\": 37849446, \"events_per_sec\": 6493109, \"bytes_per_op\": 4022553, \"allocs_per_op\": 385},\n"
		printf "        {\"name\": \"BenchmarkEngine/SM\", \"ns_per_op\": 39061100, \"events_per_sec\": 6291693, \"bytes_per_op\": 4030328, \"allocs_per_op\": 421},\n"
		printf "        {\"name\": \"BenchmarkEngine/HM\", \"ns_per_op\": 67223222, \"events_per_sec\": 3655887, \"bytes_per_op\": 4030296, \"allocs_per_op\": 421},\n"
		printf "        {\"name\": \"BenchmarkEngine/oracle\", \"ns_per_op\": 41759291, \"events_per_sec\": 5885168, \"bytes_per_op\": 4060088, \"allocs_per_op\": 391}\n"
		printf "      ]\n    }\n"
		printf "  ],\n"
		printf "  \"benchmarks\": [\n"
		for (i = 1; i <= n; i++) {
			name = order[i]
			printf "    {\"name\": \"%s\", \"ns_per_op\": %s", name, best_ns[name]
			if (name in best_evs) printf ", \"events_per_sec\": %s", best_evs[name]
			if (name in best_bpo) printf ", \"bytes_per_op\": %s", best_bpo[name]
			if (name in best_apo) printf ", \"allocs_per_op\": %s", best_apo[name]
			printf "}%s\n", (i < n ? "," : "")
		}
		printf "  ]\n}\n"
	}' "$RAW" > "$OUT"

echo "wrote $OUT" >&2

echo "== serving: mapperd selftest (best of $COUNT) ==" >&2
serve_best "$COUNT" | awk -v host="$(go env GOOS)/$(go env GOARCH)" -v hostid="$(host_id)" -v commit="$(commit_id)" '
	{
		printf "{\n  \"host\": \"%s\",\n", host
		printf "  \"host_id\": \"%s\",\n", hostid
		printf "  \"commit\": \"%s\",\n", commit
		printf "  \"fleet\": {\"tenants\": 16, \"threads\": 8, \"events_per_conn\": 1000, \"batch\": 50, \"query_every\": 4},\n"
		printf "  \"baselines\": [\n"
		printf "    {\n"
		printf "      \"serve\": \"pre-fast-path (allocating scanner parse, outbox writer goroutine, strict request/response client), commit b792496\",\n"
		printf "      \"host_id\": \"Intel(R) Xeon(R) Processor @ 2.10GHz x1\",\n"
		printf "      \"note\": \"best of 3, interleaved with the current numbers on the same machine\",\n"
		printf "      \"frozen\": {\"conns\": 256, \"events_per_sec\": 1323328, \"queries_per_sec\": 6617, \"p50_us\": 5382, \"p99_us\": 9559}\n"
		printf "    }\n"
		printf "  ],\n"
		printf "  \"serving\": {"
		out = ""
		for (i = 2; i <= NF; i++)
			if (split($i, kv, "=") == 2)
				out = out sprintf("%s\"%s\": %s", (out == "" ? "" : ", "), kv[1], kv[2])
		printf "%s}\n}\n", out
	}' > "$SERVE_OUT"

echo "wrote $SERVE_OUT" >&2
