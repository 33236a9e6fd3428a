#!/bin/sh
# benchdiff.sh - the perf gate: runs the tier-1 microbenchmarks on the
# current tree and on a base commit, compares them, and fails on
#
#   - an allocs/op regression beyond its threshold (hard, always): a
#     structure that suddenly allocates is a bug even when it is not yet
#     slower, and allocation counts are deterministic - no noise excuse;
#   - a time regression beyond its threshold that benchstat judges
#     statistically significant (p < 0.05) - only when benchstat is
#     installed. Raw mean ns/op comparisons proved worthless on shared
#     boxes (A/A runs swing tens of percent), so without benchstat the
#     time columns are reported for the record but do not gate.
#
# Nothing is downloaded; the allocs gate is a self-contained awk
# comparison so the script works on boxes without benchstat.
#
# Usage: scripts/benchdiff.sh [base-ref]      (or: make benchdiff)
#
# Environment:
#   BENCHDIFF_BASE            base ref (default: merge-base with origin/main,
#                             falling back to HEAD~1)
#   BENCHDIFF_BENCH           -bench regex (default: the tier-1 set below)
#   BENCHDIFF_COUNT           -count per side (default 5)
#   BENCHDIFF_BENCHTIME       -benchtime per run (default 100ms)
#   BENCHDIFF_MAX_REGRESSION  allowed benchstat-significant slowdown in
#                             percent (default 5); without benchstat the
#                             time comparison is advisory only
#   BENCHDIFF_MAX_ALLOCS_REGRESSION  allowed mean allocs/op growth in
#                             percent (default 10); a baseline of 0
#                             allocs/op must stay at 0
#   BENCHDIFF_PKG             packages to bench (default ./internal/core
#                             ./internal/sharded); packages absent from the
#                             base commit are benched on the new side only
set -eu

cd "$(dirname "$0")/.."

BASE="${1:-${BENCHDIFF_BASE:-}}"
if [ -z "$BASE" ]; then
    BASE=$(git merge-base HEAD origin/main 2>/dev/null) || BASE=$(git rev-parse HEAD~1)
fi
if [ "$(git rev-parse "$BASE")" = "$(git rev-parse HEAD)" ]; then
    # Already sitting on the base (e.g. running on main itself): compare
    # against the previous commit so the gate still measures something.
    BASE=$(git rev-parse HEAD~1)
fi

BENCH="${BENCHDIFF_BENCH:-^(BenchmarkListSearch|BenchmarkListInsertDelete|BenchmarkSkipListSearch|BenchmarkSkipListInsertDelete|BenchmarkAllocs|BenchmarkClustered|BenchmarkSharded|BenchmarkPinUnpin|BenchmarkRetireRecycle|BenchmarkServerWire|BenchmarkWALPublish)}"
COUNT="${BENCHDIFF_COUNT:-5}"
BENCHTIME="${BENCHDIFF_BENCHTIME:-100ms}"
MAXREG="${BENCHDIFF_MAX_REGRESSION:-5}"
MAXALLOCREG="${BENCHDIFF_MAX_ALLOCS_REGRESSION:-10}"
PKG="${BENCHDIFF_PKG:-./internal/core ./internal/sharded ./internal/ebr ./internal/server ./internal/wal}"

TMP=$(mktemp -d)
WORKTREE="$TMP/base"
cleanup() {
    git worktree remove --force "$WORKTREE" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "== benchdiff: HEAD (worktree) vs $(git rev-parse --short "$BASE") =="
echo "   bench=$BENCH count=$COUNT benchtime=$BENCHTIME gate=${MAXREG}% allocs-gate=${MAXALLOCREG}%"

echo "-- new (current tree) --"
# $PKG is intentionally unquoted: it is a whitespace-separated package list.
go test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" -benchtime "$BENCHTIME" $PKG \
    | tee "$TMP/new.txt" | grep -c '^Benchmark' >/dev/null

echo "-- old ($BASE) --"
git worktree add --detach --quiet "$WORKTREE" "$BASE"
# Bench only the packages that exist at the base commit: a package added
# since then (e.g. internal/sharded the PR that introduced it) has nothing
# to regress against, and letting it fail the old-side run would silently
# skip the whole gate.
OLDPKG=""
for p in $PKG; do
    if [ -d "$WORKTREE/${p#./}" ]; then
        OLDPKG="$OLDPKG $p"
    else
        echo "   (skipping $p: absent at base — new-side only)"
    fi
done
if [ -z "$OLDPKG" ]; then
    echo "benchdiff: no benched package exists at the base commit; nothing to gate" >&2
    exit 0
fi
(cd "$WORKTREE" && go test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" -benchtime "$BENCHTIME" $OLDPKG) \
    | tee "$TMP/old.txt" | grep -c '^Benchmark' >/dev/null || {
    echo "benchdiff: base commit could not run the benchmark set; nothing to gate" >&2
    exit 0
}

TIMEFAILS=0
if command -v benchstat >/dev/null 2>&1; then
    echo "-- benchstat old new --"
    benchstat "$TMP/old.txt" "$TMP/new.txt" | tee "$TMP/stat.txt" || true
    # The time gate rides on benchstat's own significance test: a row shows
    # a percent delta only when the change is significant at its 0.05
    # level, and "~" otherwise. Fail on significant slowdowns beyond the
    # threshold in the time section (sec/op in current benchstat, time/op
    # in the v1 layout), ignoring the geomean summary row.
    TIMEFAILS=$(awk -v maxreg="$MAXREG" '
        /sec\/op|time\/op/ { sect = "time" }
        /allocs\/op|B\/op/ { sect = "other" }
        sect == "time" && !/geomean/ && match($0, /\+[0-9]+\.?[0-9]*%/) {
            pct = substr($0, RSTART + 1, RLENGTH - 2) + 0
            if (pct > maxreg) {
                printf "benchdiff: significant time regression: %s\n", $0 > "/dev/stderr"
                fails++
            }
        }
        END { print fails + 0 }
    ' "$TMP/stat.txt")
else
    echo "   (benchstat not installed: time columns below are advisory, allocs still gate)"
fi

# The allocs gate (and the advisory time report): average ns/op and
# allocs/op per benchmark name (CPU suffix stripped), joined on the names
# present on both sides; new benchmarks (e.g. BenchmarkAllocs* when the
# base predates them) are reported but cannot regress. Allocations past
# maxallocreg percent fail - and a benchmark whose baseline is 0 allocs/op
# fails on ANY new allocation, since a percentage of zero gates nothing.
# Nonzero baselines also require the mean to move by more than half an
# allocation: go test truncates allocs/op to an integer, so a benchmark
# whose true value sits at an integer boundary (e.g. the skip-list
# insert/delete pairs, whose geometric tower height averages exactly 2
# nodes) reports run means that flip between the neighboring integers
# with any timing perturbation — while a real leak adds at least one
# whole allocation per op and clears the half-alloc bar easily.
# The *ChurnRecycle benchmarks carry an absolute gate on top: they are the
# zero-allocation write-path guarantee (DESIGN.md §2.1), so they must
# report exactly 0 allocs/op on the new side even when the base predates
# them and the relative gate has nothing to compare. BenchmarkWALPublish
# carries the same absolute gate: the WAL's producer-side publish is the
# hot-path half of the durability design and must stay allocation-free.
# Mean time deltas are printed for the record; the significance-tested
# time gate above is the only one that can fail on time.
awk -v maxreg="$MAXREG" -v maxallocreg="$MAXALLOCREG" '
    /^Benchmark/ && /ns\/op/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        for (i = 2; i < NF; i++) {
            if ($(i + 1) == "ns/op") {
                if (FILENAME ~ /old\.txt$/) { oldsum[name] += $i; oldn[name]++ }
                else                        { newsum[name] += $i; newn[name]++ }
            }
            if ($(i + 1) == "allocs/op") {
                if (FILENAME ~ /old\.txt$/) { oldalloc[name] += $i; oldallocn[name]++ }
                else                        { newalloc[name] += $i; newallocn[name]++ }
            }
        }
    }
    END {
        fails = 0
        printf "%-44s %12s %12s %8s %10s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs"
        for (name in newsum) {
            new = newsum[name] / newn[name]
            na = (name in newallocn) ? newalloc[name] / newallocn[name] : 0
            if (name ~ /ChurnRecycle/ && na > 0) {
                printf "benchdiff: %s allocates (%.2f allocs/op): the recycling write path must be 0\n", name, na > "/dev/stderr"
                fails++
            }
            if (name ~ /ServerWire(Get|Del)/ && na > 0) {
                printf "benchdiff: %s allocates (%.2f allocs/op): the read/delete wire path must be 0\n", name, na > "/dev/stderr"
                fails++
            }
            if (name ~ /WALPublish/ && na > 0) {
                printf "benchdiff: %s allocates (%.2f allocs/op): the WAL publish path must be 0\n", name, na > "/dev/stderr"
                fails++
            }
            if (!(name in oldsum)) {
                printf "%-44s %12s %12.1f %8s %10s %10.2f\n", name, "-", new, "new", "-", na
                continue
            }
            old = oldsum[name] / oldn[name]
            oa = (name in oldallocn) ? oldalloc[name] / oldallocn[name] : 0
            delta = (new - old) / old * 100
            flag = ""
            if (delta > maxreg) { flag = "  << slower on mean (advisory)" }
            if ((oa == 0 && na > 0) || (oa > 0 && na - oa > 0.5 && (na - oa) / oa * 100 > maxallocreg)) {
                flag = flag "  << REGRESSION (allocs)"; fails++
            }
            printf "%-44s %12.1f %12.1f %+7.1f%% %10.2f %10.2f%s\n", name, old, new, delta, oa, na, flag
        }
        if (fails > 0) {
            printf "benchdiff: %d allocation regression(s) beyond %s%%\n", fails, maxallocreg > "/dev/stderr"
            exit 1
        }
        print "benchdiff: no allocation regression beyond " maxallocreg "%"
    }
' "$TMP/old.txt" "$TMP/new.txt"

if [ "$TIMEFAILS" -gt 0 ]; then
    echo "benchdiff: $TIMEFAILS benchstat-significant time regression(s) beyond ${MAXREG}%" >&2
    exit 1
fi
echo "benchdiff: no significant time regression beyond ${MAXREG}%"
