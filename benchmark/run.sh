#!/bin/sh
# Build the benchmark from the sources of this checkout, then run it with
# the given arguments (see benchmark/BENCHMARK.md), e.g.
#
#   sh benchmark/run.sh --workload lan-saturate --seed 71 --seconds 8 --trace 0
#
# Fails without printing a result when the checkout lacks the sources.
set -eu
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# Keep every build artefact inside the checkout: no shared dune cache.
DUNE_CACHE=disabled dune build --root . ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
