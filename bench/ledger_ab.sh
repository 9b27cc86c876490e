#!/bin/sh
# Interleaved A/B timing of one ledger workload.
#
#   bench/ledger_ab.sh BASE WORKLOAD PAIRS
#
# Builds ledger.exe at git revision BASE (in a temporary worktree under
# $TMPDIR) and in the working tree, then runs
# `ledger.exe --workload WORKLOAD --trace 0 --seconds 15` PAIRS times on
# each side, alternating between them. 15 s is BENCHMARK.json's
# run_seconds, so every run has the benchmark's length. It prints every
# run's host_s, setup_s and peak_rss_mb, each side's median and quartiles
# of each, and how many pairs the working tree won on host_s. The order
# inside a pair flips from pair to pair, so a drift in host speed does not
# favour one side. `make ledger-ab` wraps this script.
set -eu

usage="usage: $0 BASE WORKLOAD PAIRS"
base=${1:?$usage}
workload=${2:?$usage}
pairs=${3:?$usage}
metrics="host_s setup_s peak_rss_mb"

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/ledger-ab.XXXXXX")
wt="$tmp/base-tree"
cleanup() {
  git -C "$root" worktree remove --force "$wt" 2>/dev/null || true
  git -C "$root" worktree prune
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "ledger-ab: building $base"
git -C "$root" worktree add --detach --quiet "$wt" "$base"
(cd "$wt" && dune build --root . ./ledger/ledger.exe)
cp "$wt/_build/default/ledger/ledger.exe" "$tmp/base.exe"
git -C "$root" worktree remove --force "$wt"
echo "ledger-ab: building the working tree"
(cd "$root" && dune build --root . ./ledger/ledger.exe)
cp "$root/_build/default/ledger/ledger.exe" "$tmp/head.exe"

# One timed run: print its metrics and append each to the side's list
# for that metric.
run() {
  side=$1
  line=$("$tmp/$side.exe" --workload "$workload" --trace 0 --seconds 15 \
    --out "$tmp/out-$side" | tail -n 1)
  case $line in
    *'"correct": true'*) ;;
    *) echo "ledger-ab: $side run failed its checks: $line" >&2; exit 1 ;;
  esac
  printf '  pair %d  %-4s' "$i" "$side"
  for m in $metrics; do
    v=$(printf '%s\n' "$line" | sed -n "s/.*\"$m\": {\"value\": \([^,}]*\).*/\1/p")
    printf '  %s %s' "$m" "$v"
    echo "$v" >> "$tmp/$side.$m"
  done
  echo
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then run base; run head; else run head; run base; fi
  i=$((i + 1))
done

# quantile FILE P: the P-quantile of the values in FILE, interpolated.
quantile() {
  sort -g "$1" | awk -v p="$2" '{ v[NR] = $1 }
    END { x = 1 + (NR - 1) * p; i = int(x); print v[i] + (x - i) * (v[i + 1] - v[i]) }'
}
summary() {
  echo "median $(quantile "$1" 0.5), quartiles $(quantile "$1" 0.25)-$(quantile "$1" 0.75)"
}
echo "ledger-ab: $workload, $pairs pairs"
for m in $metrics; do
  mb=$(quantile "$tmp/base.$m" 0.5)
  mh=$(quantile "$tmp/head.$m" 0.5)
  echo "  $m"
  echo "    base $base: $(summary "$tmp/base.$m")"
  echo "    working tree: $(summary "$tmp/head.$m")"
  echo "    median change $(awk -v b="$mb" -v h="$mh" 'BEGIN { printf "%+.1f%%", 100 * (h - b) / b }')"
done
wins=$(paste "$tmp/base.host_s" "$tmp/head.host_s" | awk '$2 < $1 { w++ } END { print w + 0 }')
echo "  working tree faster on host_s in $wins of $pairs pairs"
