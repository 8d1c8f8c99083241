#!/usr/bin/env bash
# Builds the daemon under test and the benchmark program from this checkout,
# then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload detect-cold --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, binaries, run state) goes
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
[ -f "$root/perfbench/go.mod" ] || { echo "perfbench: run from the repository root" >&2; exit 2; }
[ -f "$root/go.mod" ] && [ -d "$root/cmd/ensemfdetd" ] ||
  { echo "perfbench: no ensemfdet source tree (go.mod, cmd/ensemfdetd) in $root" >&2; exit 2; }
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off GOWORK=off
# With telemetry on, every go command forks a detached (setsid) sidecar that
# outlives it; turning telemetry off keeps go build from leaving a process.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/ensemfdetd" ./cmd/ensemfdetd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

# Name the commit when the checkout is itself a git work tree; git must not
# look above it.
commit=unknown
if [ -e "$root/.git" ]; then
  commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" -daemon "$out/ensemfdetd" -commit "$commit" "$@"
