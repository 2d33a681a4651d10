#!/usr/bin/env bash
# Builds the benchmark binary from source (again only when a Go source,
# go.mod or go.sum of the repository changed) and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload meet-inproc --seed 1 --seconds 20 --trace 0
#
# Everything the build writes — Go build cache, module cache, binary —
# stays under .bench_build at the repository root. The build is offline:
# the benchmark needs no module outside the repository.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

stamp=$(cd "$root" && find . -path ./.bench_build -prune -o -path ./.git -prune -o \
	-type f \( -name '*.go' -o -name go.mod -o -name go.sum \) -print |
	LC_ALL=C sort | xargs -d '\n' sha256sum | sha256sum | cut -d' ' -f1)
if [[ ! -x "$out/rvbench" || "$(cat "$out/rvbench.stamp" 2>/dev/null)" != "$stamp" ]]; then
	(cd "$root/bench" && go build -o "$out/rvbench" .) >&2
	echo "$stamp" >"$out/rvbench.stamp"
fi
cd "$root"
exec "$out/rvbench" "$@"
