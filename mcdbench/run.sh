#!/usr/bin/env bash
# Builds and runs the repository benchmark from the repository root:
#   bash mcdbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The Go build cache, module cache, temporary files and the binary all
# stay under .bench_build in the current directory.
set -euo pipefail
command -v go >/dev/null || PATH="${GOROOT:-/usr/local/go}/bin:$PATH"
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/mcdbench" && go build -o "$out/mcdbench" .)
exec "$out/mcdbench" "$@"
