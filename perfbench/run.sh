#!/usr/bin/env bash
# Builds the benchmark and the distenc-serve daemon from this checkout's
# sources, then runs one workload:
#
#   bash perfbench/run.sh --workload fit-fibers --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and scratch file lives under .bench_build/ at
# the checkout root, so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/distenc-serve" ]]; then
	echo "perfbench: $root holds no distenc module to build" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local
# A caller's shell may carry worker variables; with DISTENC_WORKER_LISTEN set
# the benchmark binary would turn into a transport worker instead of running.
unset DISTENC_WORKER_LISTEN DISTENC_WORKER_DATA DISTENC_WORKER_LIFELINE

(cd "$root" && go build -o "$build/bin/distenc-serve" ./cmd/distenc-serve) >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

cd "$root"
exec "$build/bin/perfbench" -serve-bin "$build/bin/distenc-serve" -workdir "$build/work" "$@"
