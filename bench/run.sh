#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives from this checkout, then runs
# the benchmark with the arguments given. Everything the go tool writes — its
# build cache included — stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/bin/sage-bench" .)
(cd "$root" && go build -o "$out/bin/sage-serve" ./cmd/sage-serve)
exec "$out/bin/sage-bench" -root "$root" -serve-bin "$out/bin/sage-serve" "$@"
