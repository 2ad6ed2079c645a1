#!/usr/bin/env bash
# Builds the sniffer-run benchmark from the source tree it sits in and runs
# it from the repository root:
#
#   bash perfbench/run.sh --workload day-6k --seed 1 --seconds 40 --trace 0
#
# Build outputs (binary and Go build cache) stay under .bench_build/ in the
# repository root. The build never touches the network: a tree without the
# sniffer's sources fails here with a non-zero exit and no result line.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

# The toolchain's config and telemetry directories follow XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOPATH="$out/gopath"
export GOTMPDIR="$out"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

# The commit stamp: git when the tree is a work tree, otherwise a digest of
# the Go sources and module files, so results of different code never
# share a stamp.
if [ -e "$root/.git" ] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	:
else
	commit="src-$(find "$root" -path "$out" -prune -o -type f \( -name '*.go' -o -name 'go.mod' \) -print |
		LC_ALL=C sort | xargs sha256sum | sed "s#  $root/#  #" | sha256sum | cut -c1-16)"
fi
export PERFBENCH_COMMIT="$commit"

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
