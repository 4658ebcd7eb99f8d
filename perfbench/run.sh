#!/usr/bin/env bash
# Builds galleryd, galleryserve and the benchmark from the checkout in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload predict_hot --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, Go's caches included.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/galleryd" || ! -d "$root/cmd/galleryserve" ]]; then
	echo "perfbench: run from the root of a Gallery checkout (no go.mod, cmd/galleryd or cmd/galleryserve here)" >&2
	exit 2
fi
build="$root/.bench_build/perfbench"
mkdir -p "$build/bin" "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off TMPDIR="$build/tmp"

go build -o "$build/bin/galleryd" ./cmd/galleryd >&2
go build -o "$build/bin/galleryserve" ./cmd/galleryserve >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build" "$@"
