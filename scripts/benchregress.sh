#!/usr/bin/env bash
# benchregress.sh — fail when HEAD regresses the hot-path benchmarks
# against a base ref by more than the tolerance.
#
# Usage: scripts/benchregress.sh [base-ref]     (default: origin/main)
#
# Runs BenchmarkCorrelate, BenchmarkSinkWrite, BenchmarkRollupObserve,
# BenchmarkIngestDNS, BenchmarkFlattenResponse, BenchmarkSnapshot,
# BenchmarkRestore, BenchmarkQueryRange, BenchmarkCompact,
# BenchmarkInfluxEncode, BenchmarkSample, BenchmarkUDPIngest,
# BenchmarkCmapTable, BenchmarkForwardFanout and
# BenchmarkPipelineBatchedWrites (the one benchmark whose records cross the
# whole pipeline) on HEAD and on the base ref (a git archive extract in a
# temporary directory), prints a benchstat comparison when benchstat is
# installed, and compares per-benchmark median ns/op with a plain awk
# check: a benchmark present in both runs that is more than TOLERANCE
# (default 1.20 = +20% time, ≈ -17% throughput) slower fails the script. Benchmarks that exist
# only on HEAD (newly added) are skipped; a guarded benchmark present on
# the base but MISSING from HEAD fails the script — a deleted or renamed
# guard must be removed from BENCHES deliberately, not silently unguarded.
#
# The HEAD run also snapshots the fill-path and query-plane medians
# (BenchmarkIngestDNS*, BenchmarkFlattenResponse*, BenchmarkQueryRange*,
# BenchmarkCompact*, BenchmarkInfluxEncode, BenchmarkSample*,
# BenchmarkUDPIngest*, BenchmarkCmapTable*, BenchmarkForwardFanout) into
# BENCH_ingest.json at the repo root, so their perf
# trajectory is tracked commit over commit; refresh the checked-in snapshot
# when the numbers move for a reason.
#
# Tunables via environment: BENCHES, COUNT, BENCHTIME, TOLERANCE, SNAPSHOT
# (path of the JSON snapshot; empty disables).
set -euo pipefail

BASE_REF=${1:-origin/main}
BENCHES=${BENCHES:-'BenchmarkCorrelate$|BenchmarkSinkWrite$|BenchmarkRollupObserve$|BenchmarkIngestDNS$|BenchmarkFlattenResponse$|BenchmarkSnapshot$|BenchmarkRestore$|BenchmarkQueryRange$|BenchmarkCompact$|BenchmarkInfluxEncode$|BenchmarkSample$|BenchmarkUDPIngest$|BenchmarkCmapTable$|BenchmarkForwardFanout$|BenchmarkPipelineBatchedWrites$'}
COUNT=${COUNT:-6}
BENCHTIME=${BENCHTIME:-300ms}
TOLERANCE=${TOLERANCE:-1.20}
SNAPSHOT=${SNAPSHOT-BENCH_ingest.json}

repo_root=$(git rev-parse --show-toplevel)
cd "$repo_root"

tmp=$(mktemp -d)
cleanup() {
    rm -rf "$tmp"
}
trap cleanup EXIT

run_bench() {
    (cd "$1" && go test -run '^$' -bench "$BENCHES" -benchmem \
        -benchtime "$BENCHTIME" -count "$COUNT" .)
}

echo "==> benchmarks @ HEAD ($(git rev-parse --short HEAD))"
run_bench "$repo_root" | tee "$tmp/head.txt"

echo "==> benchmarks @ $BASE_REF"
mkdir -p "$tmp/base"
git archive "$BASE_REF" | tar -x -C "$tmp/base"
# A benchmark that fails on the base (one this change repairs, say) leaves
# no base median and is then skipped like a newly added one; a failure on
# HEAD above still aborts the script.
run_bench "$tmp/base" | tee "$tmp/base.txt" ||
    echo "==> some benchmarks failed on $BASE_REF; they are not compared"

if command -v benchstat >/dev/null 2>&1; then
    echo "==> benchstat $BASE_REF → HEAD"
    benchstat "$tmp/base.txt" "$tmp/head.txt" || true
fi

# Median ns/op per benchmark name from a `go test -bench` output file.
medians() {
    awk '/^Benchmark/ {
        for (i = 2; i <= NF; i++) if ($i == "ns/op") {
            n[$1]++
            v[$1 "," n[$1]] = $(i - 1)
        }
    }
    END {
        for (b in n) {
            c = n[b]
            for (i = 1; i <= c; i++) a[i] = v[b "," i]
            # insertion sort; counts are tiny
            for (i = 2; i <= c; i++) {
                x = a[i]
                for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
                a[j + 1] = x
            }
            m = (c % 2) ? a[(c + 1) / 2] : (a[c / 2] + a[c / 2 + 1]) / 2
            print b, m
        }
    }' "$1"
}

medians "$tmp/base.txt" | sort > "$tmp/base.med"
medians "$tmp/head.txt" | sort > "$tmp/head.med"

# Snapshot the fill-path and query-plane benchmarks (median ns/op, B/op,
# allocs/op) from the HEAD run into a JSON file tracked in the repository.
if [ -n "$SNAPSHOT" ]; then
    # Strip the -GOMAXPROCS suffix so the snapshot is machine-independent.
    sed -E 's/^(Benchmark[^ \t]+)-[0-9]+/\1/' "$tmp/head.txt" | \
    awk '/^BenchmarkIngestDNS|^BenchmarkFlattenResponse|^BenchmarkQueryRange|^BenchmarkCompact|^BenchmarkInfluxEncode|^BenchmarkSample|^BenchmarkUDPIngest|^BenchmarkCmapTable|^BenchmarkForwardFanout/ {
        name = $1
        for (i = 2; i <= NF; i++) {
            if ($i == "ns/op")     ns[name]     = ns[name] " " $(i-1)
            if ($i == "B/op")      bop[name]    = bop[name] " " $(i-1)
            if ($i == "allocs/op") allocs[name] = allocs[name] " " $(i-1)
        }
    }
    function median(list,   a, n, i, x, j) {
        n = split(list, a, " ")
        for (i = 2; i <= n; i++) { x = a[i]; for (j = i-1; j >= 1 && a[j]+0 > x+0; j--) a[j+1] = a[j]; a[j+1] = x }
        return (n % 2) ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
    }
    END {
        for (name in ns)
            printf "%s %s %s %s\n", name, median(ns[name]), median(bop[name]), median(allocs[name])
    }' | sort | awk '
    BEGIN { printf "{\n  \"benchmarks\": {" }
    {
        if (NR > 1) printf ","
        printf "\n    \"%s\": { \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s }", $1, $2, $3, $4
    }
    END { printf "\n  }\n}\n" }' > "$SNAPSHOT"
    echo "==> wrote $SNAPSHOT"
fi

echo "==> regression check (tolerance ${TOLERANCE}x median ns/op)"
fail=0
while read -r name base_med; do
    head_med=$(awk -v n="$name" '$1 == n { print $2 }' "$tmp/head.med")
    if [ -z "$head_med" ]; then
        # A guarded benchmark ran on the base but produced nothing on HEAD:
        # it was deleted, renamed, or broken. That silently removes the
        # regression guard, so it fails loudly instead of passing quietly.
        printf 'MISSING %s: present on %s, absent on HEAD\n' "$name" "$BASE_REF"
        fail=1
        continue
    fi
    if awk -v b="$base_med" -v h="$head_med" -v t="$TOLERANCE" \
        'BEGIN { exit !(h > b * t) }'; then
        printf 'REGRESSION %s: %s -> %s ns/op (>%sx)\n' \
            "$name" "$base_med" "$head_med" "$TOLERANCE"
        fail=1
    else
        printf 'ok %s: %s -> %s ns/op\n' "$name" "$base_med" "$head_med"
    fi
done < "$tmp/base.med"

exit $fail
