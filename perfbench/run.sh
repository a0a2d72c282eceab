#!/usr/bin/env bash
# Builds cmd/pqsda and the benchmark program from this checkout into
# .bench_build and runs the program with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload head-replay --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Every build and run artifact
# (Go build cache included) stays under .bench_build.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/pqsda" ]; then
	echo "perfbench: run from the root of the repository (no go.mod or cmd/pqsda here)" >&2
	exit 1
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/cache" "$out/tmp" "$out/config" "$out/work"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# With telemetry on, a go command starts a detached upload process that
# outlives it; "go telemetry off" starts none and keeps the later ones
# from starting one.
go telemetry off
go build -o "$out/pqsda" ./cmd/pqsda >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -server "$out/pqsda" -work "$out/work" "$@"
