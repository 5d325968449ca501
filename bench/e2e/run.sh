#!/usr/bin/env bash
# Build ra_bench from this checkout's sources, then run it with the given
# arguments. Run from anywhere inside the repository, e.g.
#
#   bash bench/e2e/run.sh --workload attest-64k --seed 7 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of stdout stays the run's
# JSON result. A checkout without the libraries fails the build and exits
# non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . --display quiet ./bench/e2e/ra_bench.exe 1>&2
exec ./_build/default/bench/e2e/ra_bench.exe "$@"
