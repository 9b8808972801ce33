#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it from the root with the given arguments, e.g.
#   bash bench/run.sh --workload pairs --seed 1 --seconds 20 --trace 0
# The Go build cache, temporary files and the go command's own
# configuration and telemetry stay inside .bench_build/ too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$out/neonbench" .)
cd "$root"
exec "$out/neonbench" "$@"
