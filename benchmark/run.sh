#!/usr/bin/env bash
# Entry point of the repo benchmark (see BENCHMARK.json and README.md here).
# Builds cmd/lflserver and the harness from source into .bench_build/ under
# the checkout root, keeping the Go build cache, HOME and every temp file
# inside the checkout, then runs the harness from the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOFLAGS=
# With a fresh HOME the go command would start its telemetry sidecar, a
# detached process that outlives a failed build; the mode file turns it off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
cd "$here"
go build -o "$build/lflserver" repro/cmd/lflserver
go build -o "$build/lflbenchmark" .
cd "$root"
exec "$build/lflbenchmark" -server "$build/lflserver" -workdir "$build" "$@"
