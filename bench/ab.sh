#!/usr/bin/env bash
# A/B end-to-end benchmark of this checkout against an earlier commit.
#
#   bash bench/ab.sh PARENT_REV WORKLOAD PAIRS OUTDIR
#
# Checks PARENT_REV out with `git worktree add` into a temporary directory
# (removed on exit), then runs `bench/e2e/run.sh --workload WORKLOAD` on
# both sides PAIRS times. Pair i runs both sides with `--seed i`; odd
# pairs run the parent first and even pairs this checkout first, so drift
# in host speed hits both sides alike. Each run appends one line to
# OUTDIR/parent.jsonl or OUTDIR/change.jsonl. Finally it prints
# `ra_bench compare OUTDIR/parent.jsonl OUTDIR/change.jsonl --benchmark
# BENCHMARK.json` and exits with its status (1 on a regression).
#
# This checkout runs as it is in the working tree, uncommitted edits
# included. Both result files in OUTDIR are replaced, and OUTDIR may not
# lie under bench/e2e, whose files are the benchmark itself. Use at least
# ten pairs before claiming a gain.
set -euo pipefail

if [ "$#" -ne 4 ]; then
  echo "usage: bash bench/ab.sh PARENT_REV WORKLOAD PAIRS OUTDIR" >&2
  exit 2
fi
parent_rev=$1 workload=$2 pairs=$3 outdir=$4
case $pairs in
  '' | *[!0-9]* | 0) echo "ab.sh: PAIRS must be a positive integer" >&2; exit 2 ;;
esac

root=$(cd "$(dirname "$0")/.." && pwd -P)
outdir=$(realpath -m "$outdir")
case $outdir/ in
  "$root/bench/e2e/"*) echo "ab.sh: OUTDIR must not lie under bench/e2e" >&2; exit 2 ;;
esac
mkdir -p "$outdir"
rm -f "$outdir/parent.jsonl" "$outdir/change.jsonl"

cd "$root"
parent_commit=$(git rev-parse --short "$parent_rev^{commit}")
change_commit=$(git describe --always --dirty)
tmp=$(mktemp -d)
cleanup() {
  git -C "$root" worktree remove --force "$tmp/parent" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach --quiet "$tmp/parent" "$parent_commit"

# build both sides first, so no run follows a long compile
for dir in "$tmp/parent" "$root"; do
  (cd "$dir" && dune build --root . --display quiet ./bench/e2e/ra_bench.exe)
done

run() { # side dir commit seed
  echo "== $workload seed $4: $1 ($3)" >&2
  bash "$2/bench/e2e/run.sh" --workload "$workload" --seed "$4" --commit "$3" \
    --out "$outdir/$1.jsonl"
}

for seed in $(seq 1 "$pairs"); do
  if [ $((seed % 2)) -eq 1 ]; then
    run parent "$tmp/parent" "$parent_commit" "$seed"
    run change "$root" "$change_commit" "$seed"
  else
    run change "$root" "$change_commit" "$seed"
    run parent "$tmp/parent" "$parent_commit" "$seed"
  fi
done

bash bench/e2e/run.sh compare "$outdir/parent.jsonl" "$outdir/change.jsonl" \
  --benchmark BENCHMARK.json
