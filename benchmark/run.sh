#!/usr/bin/env bash
# Builds ledgerd (at this checkout's source) and the benchmark harness
# into .bench_build/, then runs the harness with the given arguments.
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache too, so nothing outside is touched.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"

# Without the program's source there is nothing to measure: say so and
# fail before anything is started or written.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ledgerd" ]]; then
	echo "benchmark/run.sh: no ledgerd source at $root (go.mod, cmd/ledgerd): nothing to benchmark" >&2
	exit 1
fi
mkdir -p "$out/bin" "$out/go-cache" "$out/tmp"

# The go command keeps its caches, its env file and its telemetry
# counters under the home directory unless told otherwise.
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off
# With telemetry on (the default, "local"), the first go command under a
# fresh config directory forks a detached copy of itself that outlives
# the build. No process of ours may outlive the run: turn it off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
# The module has no dependency outside this repository: never go online.
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Build messages go to stderr; standard output belongs to the harness.
(cd "$root" && go build -o "$out/bin/ledgerd" ./cmd/ledgerd) >&2
(cd "$root/benchmark" && go build -o "$out/bin/fleetbench" .) >&2

cd "$root"
exec "$out/bin/fleetbench" "$@"
