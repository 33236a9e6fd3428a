#!/bin/sh
# check.sh - the full local gate, mirroring what CI would run:
#
#   1. go vet over every package, and gofmt: no file may need reformatting,
#   2. the tier-1 gate (build + tests, as recorded in ROADMAP.md), then
#      the repo benchmark's own module (benchmark/, which tier-1 does not
#      build): vet, tests, and 3 s runs of lib_churn, wire_pipe16 and
#      wire_open_durable that must come back correct with no failed
#      operation,
#   3. the test suite again under the race detector,
#   4. targeted race passes over the parallelism-shaped packages
#      (internal/sharded, internal/server, internal/instrument,
#      internal/ebr, internal/wal, internal/snapshot) at GOMAXPROCS=2
#      and 8, plus the allocation pins without the race detector at
#      GOMAXPROCS=2 and one iteration of every BenchmarkServerWire*,
#      plus the unsafe gates: internal/core's successor word
#      lives in one file (steps 1 and 3 vet it and run it under checkptr),
#      and repo-wide only three allow-listed files import unsafe,
#   5. a ten-second FuzzRESP run over the wire-protocol readers: hostile
#      bytes must fail requests, never hang or kill the serving goroutine,
#   6. short lflstress runs: a -server smoke (an in-process TCP server
#      per round, pipelined mixed workloads, linearizability-checked, with
#      the graceful drain asserted at each round's end), fr-list with and
#      without node recycling and fr-skiplist with it — plus a race-built
#      kill-and-recover smoke: SIGKILL a wal-sync child server mid-burst
#      and verify every acked write survives recovery,
#   7. an observability smoke: a real lflserver with its admin listener
#      up, the /metrics, /debug/trace, and /debug/pprof surfaces curled
#      and sanity-checked, then a clean SIGTERM drain — plus, when a
#      redis-cli binary is on PATH, a real-client RESP round-trip
#      against the same server (skipped quietly otherwise),
#   8. (opt-in: BENCHDIFF=1) the benchdiff perf gate against the merge
#      base — off by default because microbenchmarks need a quiet machine
#      to be meaningful.
#
# Usage: scripts/check.sh  (or: make check; BENCHDIFF=1 make check)
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./... =="
go vet ./...

echo "== gofmt -l . =="
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || { echo "gofmt: these files need gofmt -w: $unformatted"; exit 1; }

echo "== tier-1: go build ./... && go test ./... =="
go build ./...
go test ./...

# The repo benchmark (BENCHMARK.json) is a nested module, so nothing above
# builds it: a change can pass tier-1 and vet and still break the harness
# the pipeline measures it with. Vet and test the module, then run three
# workloads end to end - the shortest library one; wire_pipe16, which
# drives lflserver the way the pipeline's benchmark does: 16-deep RESP
# bursts whose every reply is checked against a model; and
# wire_open_durable, whose restart-and-read-back is the one end-to-end
# check that logged mutations survive. The last line of a run is the
# result object.
echo "== benchmark module: vet, test, 3 s lib_churn, wire_pipe16 and wire_open_durable smokes =="
(cd benchmark && go vet ./... && go test ./...)
for workload in lib_churn wire_pipe16 wire_open_durable; do
    smoke=$(bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 3 --trace 0 | tail -n 1)
    { echo "$smoke" | grep -q '"correct":true' && echo "$smoke" | grep -q '"failed":0[,}]'; } \
        || { echo "benchmark smoke ($workload): want \"correct\":true and \"failed\":0, last line is: $smoke"; exit 1; }
done

echo "== race: go test -race ./... =="
go test -race ./...

# The sharded map runs a batch's sub-runs inline on the caller's
# goroutine, so its concurrency is all between callers: several of them
# batching into the same shards at once, their fingers landing on nodes
# the others are deleting. Race that at both a small and a large core
# count (at 2 preemption interleaves the callers, at 8 they truly overlap).
echo "== race: concurrent sharded batches at GOMAXPROCS=2 and GOMAXPROCS=8 =="
GOMAXPROCS=2 go test -race -count=1 ./internal/sharded
GOMAXPROCS=8 go test -race -count=1 ./internal/sharded

# The successor word (tagged interior pointers) and the tower's cell
# accessor (cells stored behind the tower header) are the only unsafe code
# in the repo's core. Keep both in one file, so the three rules in word.go
# have one place to be enforced. (The vet leg above runs the unsafeptr
# pass over it, and the race leg turns on checkptr for every package that
# swaps words: a word decoded or tagged outside its node, or a cell
# addressed outside its tower's allocation, fails there.)
echo "== unsafe: only word.go imports it in internal/core =="
unsafe_files=$(grep -l '"unsafe"' internal/core/*.go | grep -v '_test\.go$' || true)
[ "$unsafe_files" = "internal/core/word.go" ] \
    || { echo "unsafe gate: non-test files importing unsafe in internal/core: $unsafe_files (want only word.go)"; exit 1; }

# Repo-wide, unsafe has three non-test homes: the successor word, the
# stripe hash every striped structure shares (a stack address, hashed and
# dropped), and the serving layer's zero-copy string view for writev.
echo "== unsafe: the repo-wide allow-list =="
unsafe_files=$(git grep -l '"unsafe"' -- '*.go' ':!*_test.go' | tr '\n' ' ')
unsafe_allowed="internal/core/word.go internal/instrument/sharded.go internal/server/wire.go "
[ "$unsafe_files" = "$unsafe_allowed" ] \
    || { echo "unsafe gate: non-test files importing unsafe: $unsafe_files (want exactly $unsafe_allowed)"; exit 1; }

# The allocation pins skip themselves under the race detector (it drops
# sync.Pool puts at random), so run them once more without it, at the
# core count where the pooled paths actually interleave: a recorded
# operation, a sharded batch, a snapshotted key and a WAL publish must
# each allocate nothing.
echo "== allocs: pins without the race detector at GOMAXPROCS=2 =="
GOMAXPROCS=2 go test -count=1 -run 'Allocs' ./internal/core ./internal/server ./internal/snapshot ./internal/sharded ./internal/wal

# The wire benchmarks are where the docs' line-vs-RESP and durability
# figures come from: run each once so none of them rots unnoticed.
echo "== bench: BenchmarkServerWire* once =="
go test -count=1 -run '^$' -bench 'ServerWire' -benchtime 1x ./internal/server

# The serving layer's per-connection goroutines, accept-time shedding,
# and shutdown drain (Shutdown arming read deadlines on connections
# mid-run) are all goroutine-scheduling shaped: race them at both core
# counts too.
echo "== race: serving layer at GOMAXPROCS=2 and GOMAXPROCS=8 =="
GOMAXPROCS=2 go test -race -count=1 ./internal/server
GOMAXPROCS=8 go test -race -count=1 ./internal/server

# The instrument package's histograms and trace ring are written lock-free
# from every serving goroutine at once: race them at both core counts so
# the single-writer-ticket and torn-read-detection paths are both covered.
echo "== race: instrument at GOMAXPROCS=2 and GOMAXPROCS=8 =="
GOMAXPROCS=2 go test -race -count=1 ./internal/instrument
GOMAXPROCS=8 go test -race -count=1 ./internal/instrument

# The EBR layer is nothing but scheduling-shaped state: striped pins,
# try-locked retire slots, epoch advancement, and free-list stealing. Race
# it at both core counts — at 2 the stall paths (a preempted pinned
# goroutine blocking the epoch) dominate, at 8 the stripe-contention
# fallbacks do.
echo "== race: ebr at GOMAXPROCS=2 and GOMAXPROCS=8 =="
GOMAXPROCS=2 go test -race -count=1 ./internal/ebr
GOMAXPROCS=8 go test -race -count=1 ./internal/ebr

# The WAL's MPSC publish ring and single fsyncing writer, and the fuzzy
# snapshot's writer-concurrent Ascend scan, are scheduling-shaped in the
# same way: at 2 cores the producers starve behind the writer goroutine
# (ring-full backpressure on the publish path), at 8 the ticket
# contention and group-commit batching dominate.
echo "== race: wal + snapshot at GOMAXPROCS=2 and GOMAXPROCS=8 =="
GOMAXPROCS=2 go test -race -count=1 ./internal/wal ./internal/snapshot
GOMAXPROCS=8 go test -race -count=1 ./internal/wal ./internal/snapshot

# Protocol-robustness fuzz: ten seconds of arbitrary bytes against a
# served connection (seeds cover both dialects and every malformed-frame
# class the RESP reader distinguishes). The invariant is termination —
# hostile input may fail requests but must never panic or wedge the
# serving goroutines. -run '^$' skips the unit tests; the instrumented
# build dominates the wall clock, the fuzz window itself is 10s.
echo "== fuzz: FuzzRESP for 10s =="
go test -fuzz=FuzzRESP -fuzztime=10s -run '^$' ./internal/server

# End-to-end serving smoke: lflstress in -server self mode starts a real
# TCP server per round, drives it with pipelined mixed workloads over
# several connections, checks every history for linearizability, and
# asserts the graceful drain loses no in-flight response. A few seconds of
# wall clock, bounded by the small op counts.
echo "== lflstress -server self smoke =="
go run ./cmd/lflstress -server self -threads 6 -ops 500 -keys 64 -rounds 4 -batch 8

# Structure-level list legs: the linked list is the skip list's level 1,
# so it shares every routine, batch and finger path with it - and gets its
# own linearizability-checked rounds, point ops and sorted batches mixed.
# lflstress exits non-zero when no round could be checked, so a pass
# means at least one round was verified.
echo "== lflstress fr-list smoke =="
go run ./cmd/lflstress -impl fr-list -threads 6 -ops 500 -keys 16 -rounds 3 -batch 8

# Recycling smoke: the same linearizability checking with EBR-backed node
# recycling live — a small key space under heavy churn, so node identities
# repeat across the checked histories. The run fails unless identities
# actually recycled, so this asserts the machinery is on, not just tolerated.
echo "== lflstress -recycle smoke =="
go run ./cmd/lflstress -impl fr-list -recycle -threads 6 -ops 500 -keys 16 -rounds 3 -batch 8
go run ./cmd/lflstress -impl fr-skiplist -recycle -threads 6 -ops 500 -keys 16 -rounds 3 -batch 8
go run ./cmd/lflstress -server self -recycle -threads 4 -ops 400 -keys 32 -rounds 2 -batch 8

# Kill-and-recover smoke: lflstress re-execs itself as a wal-sync child
# server, SIGKILLs it mid-burst, restarts it from the same WAL directory,
# and verifies every client-acked write survived (and that in-flight
# unacked suffixes recovered to an admissible prefix). Run under -race:
# the parent's workers, the child's serving goroutines, and the WAL
# writer are all instrumented (the child is a re-exec of the same
# race-built binary).
echo "== lflstress -killrecover smoke (race) =="
go run -race ./cmd/lflstress -killrecover -threads 4 -ops 4000 -keys 32 -rounds 2

# Observability smoke: a real lflserver with its admin listener and pprof
# enabled, every debug surface curled and sanity-checked, then a SIGTERM
# drain. Asserts the admin mux serves well-formed output end to end — the
# per-verb histograms on /metrics, sampled traces on /debug/trace, and the
# profiling surface — not just that the handlers exist.
echo "== lflserver observability smoke =="
obs_log=$(mktemp)
obs_out=$(mktemp)
go build -o "$obs_out.bin" ./cmd/lflserver
"$obs_out.bin" -addr 127.0.0.1:0 -admin-addr 127.0.0.1:0 -pprof -trace-sample 1 >"$obs_log" 2>&1 &
obs_pid=$!
trap 'kill "$obs_pid" 2>/dev/null || true; rm -f "$obs_log" "$obs_out" "$obs_out.bin"' EXIT
admin=""
for _ in $(seq 1 100); do
    admin=$(sed -n 's|^lflserver: admin endpoints on http://||p' "$obs_log")
    [ -n "$admin" ] && break
    kill -0 "$obs_pid" 2>/dev/null || { cat "$obs_log"; echo "obs-smoke: server died"; exit 1; }
    sleep 0.1
done
[ -n "$admin" ] || { cat "$obs_log"; echo "obs-smoke: admin address never appeared"; exit 1; }
addr=$(sed -n 's|^lflserver: serving .* on \([0-9.:]*\) .*$|\1|p' "$obs_log")
[ -n "$addr" ] || { cat "$obs_log"; echo "obs-smoke: protocol address never appeared"; exit 1; }
# Put traffic on the wire so the histograms and trace ring have content
# (curl's telnet mode is a raw TCP client: stdin to socket, socket to
# stdout).
replies=$(printf 'SET 1 a\nSET 2 b\nGET 1\nGET 3\nDEL 2\nPING\nQUIT\n' \
    | curl -s --max-time 10 "telnet://$addr")
echo "$replies" | grep -q '+PONG' \
    || { echo "obs-smoke: no +PONG from the protocol listener"; exit 1; }
# RESP smoke with a real Redis client, when one is installed: dialect
# detection is per-connection, so redis-cli talks RESP2 to the same
# listener the line-protocol traffic above just used. Skipped quietly
# when the binary is absent (the e2e RESP tests cover the protocol
# either way; this leg asserts interop with an independent client).
if command -v redis-cli >/dev/null 2>&1; then
    rhost=${addr%:*} rport=${addr##*:}
    rcli() { redis-cli -h "$rhost" -p "$rport" "$@"; }
    [ "$(rcli PING)" = "PONG" ] || { echo "resp-smoke: PING != PONG"; exit 1; }
    [ "$(rcli SET 7 hello)" = "OK" ] || { echo "resp-smoke: SET failed"; exit 1; }
    [ "$(rcli GET 7)" = "hello" ] || { echo "resp-smoke: GET != hello"; exit 1; }
    [ "$(rcli DEL 7)" = "1" ] || { echo "resp-smoke: DEL != 1"; exit 1; }
    echo "resp-smoke: redis-cli PING/SET/GET/DEL round-trip ok"
else
    echo "resp-smoke: redis-cli not installed, skipping"
fi
metrics=$(curl -sf "http://$admin/metrics")
echo "$metrics" | grep -q 'lockfree_server_cmd_latency_seconds_bucket{.*le="+Inf"' \
    || { echo "obs-smoke: /metrics missing per-verb latency histogram"; exit 1; }
echo "$metrics" | grep -q '^go_goroutines ' \
    || { echo "obs-smoke: /metrics missing runtime bridge"; exit 1; }
trace=$(curl -sf "http://$admin/debug/trace")
echo "$trace" | grep -q '"records"' \
    || { echo "obs-smoke: /debug/trace not well-formed: $trace"; exit 1; }
curl -sf "http://$admin/debug/pprof/goroutine?debug=1" | grep -q 'goroutine' \
    || { echo "obs-smoke: /debug/pprof/goroutine empty"; exit 1; }
kill -TERM "$obs_pid"
wait "$obs_pid" || { cat "$obs_log"; echo "obs-smoke: drain failed"; exit 1; }
grep -q 'drained cleanly' "$obs_log" || { cat "$obs_log"; echo "obs-smoke: no clean drain"; exit 1; }
trap - EXIT
rm -f "$obs_log" "$obs_out" "$obs_out.bin"
echo "obs-smoke: /metrics, /debug/trace, /debug/pprof all healthy"

if [ "${BENCHDIFF:-0}" = "1" ]; then
    echo "== benchdiff: perf gate =="
    scripts/benchdiff.sh
fi

echo "check: all gates passed"
