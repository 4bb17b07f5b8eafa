#!/usr/bin/env bash
# Builds the pipeline benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload tick --seed 1 --seconds 30 --trace 0
# --workload all runs tick, ingest and station one after another.
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
if [[ "${1:-}" == "--workload" && "${2:-}" == "all" ]]; then
	shift 2
	status=0
	for w in tick ingest station; do
		"$out/perfbench" --workload "$w" "$@" || status=1
	done
	exit "$status"
fi
exec "$out/perfbench" "$@"
