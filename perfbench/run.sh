#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload solve_random --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build, relative to the
# checkout root). The build needs the repository's own go.mod one level up;
# without it the script fails before printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/spans"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans "$out/spans" "$@"
