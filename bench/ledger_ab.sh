#!/bin/sh
# Interleaved A/B timing of ledger workloads.
#
#   bench/ledger_ab.sh BASE WORKLOADS PAIRS
#
# WORKLOADS is one workload, a comma-separated list of them, or `all`
# (every workload BENCHMARK.json declares). Builds ledger.exe once at git
# revision BASE (in a temporary worktree under $TMPDIR) and once in the
# working tree; with BASE_EXE=path set, that executable is the base and
# no worktree is made (BASE then only labels it). For each workload it
# runs `ledger.exe --workload W --trace 0 --seconds 15` PAIRS times on
# each side, alternating between them. 15 s is BENCHMARK.json's
# run_seconds, so every run has the benchmark's length. It prints every
# run's host_s, setup_s and peak_rss_mb, each side's median and
# quartiles of each, and how many pairs the working tree won on host_s.
# After the pairs it runs each side once more with `--trace 1` and prints
# that run's runtime.ns_per_access (program model), memsys.hit_ns
# (memory-system hit path), proto.miss_ns (protocol miss transition),
# proto.region_ns (WARD region add/remove), llc.ns_per_read (LLC slice
# read), trace.envelope_ns_per_event (trace envelope round trip) and
# trace.record_overhead_pct (recording against a plain run) beside the
# host_s summary: they say which layer a host_s or setup_s change came
# from. Then it prints one line per workload
# with each metric's median change. The order inside a pair flips from
# pair to pair, so a drift in host speed does not favour one side. With
# SEED=N set, every run on both sides gets `--seed N`.
# `make ledger-ab` wraps this script.
set -eu

usage="usage: [BASE_EXE=path] [SEED=n] $0 BASE WORKLOAD[,WORKLOAD...]|all PAIRS"
base=${1:?$usage}
workloads=${2:?$usage}
pairs=${3:?$usage}
metrics="host_s setup_s peak_rss_mb"
layers="runtime.ns_per_access memsys.hit_ns proto.miss_ns proto.region_ns llc.ns_per_read trace.envelope_ns_per_event trace.record_overhead_pct"

root=$(git rev-parse --show-toplevel)
if [ "$workloads" = all ]; then
  workloads=$(sed -n 's/.*"name": "\([^"]*\)", "why".*/\1/p' "$root/BENCHMARK.json" |
    paste -s -d, -)
fi
tmp=$(mktemp -d "${TMPDIR:-/tmp}/ledger-ab.XXXXXX")
wt="$tmp/base-tree"
cleanup() {
  if [ -d "$wt" ]; then
    git -C "$root" worktree remove --force "$wt" 2>/dev/null || true
    git -C "$root" worktree prune
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

if [ -n "${BASE_EXE:-}" ]; then
  echo "ledger-ab: base $base is $BASE_EXE"
  cp "$BASE_EXE" "$tmp/base.exe"
else
  echo "ledger-ab: building $base"
  git -C "$root" worktree add --detach --quiet "$wt" "$base"
  (cd "$wt" && dune build --root . ./ledger/ledger.exe)
  cp "$wt/_build/default/ledger/ledger.exe" "$tmp/base.exe"
  git -C "$root" worktree remove --force "$wt"
fi
echo "ledger-ab: building the working tree"
(cd "$root" && dune build --root . ./ledger/ledger.exe)
cp "$root/_build/default/ledger/ledger.exe" "$tmp/head.exe"

# run SIDE TRACE LABEL METRIC...: one run of workload $w with --trace
# TRACE; print the named metrics and append each to the side's list for
# that metric.
run() {
  side=$1 trace=$2 label=$3
  shift 3
  line=$("$tmp/$side.exe" --workload "$w" --trace "$trace" --seconds 15 \
    ${SEED:+--seed "$SEED"} --out "$tmp/out-$side" | tail -n 1)
  case $line in
    *'"correct": true'*) ;;
    *) echo "ledger-ab: $w: $side run failed its checks: $line" >&2; exit 1 ;;
  esac
  printf '  %s  %-4s' "$label" "$side"
  for m in "$@"; do
    v=$(printf '%s\n' "$line" | sed -n "s/.*\"$m\": {\"value\": \([^,}]*\).*/\1/p")
    printf '  %s %s' "$m" "$v"
    echo "$v" >> "$tmp/$w.$side.$m"
  done
  echo
}

# quantile FILE P: the P-quantile of the values in FILE, interpolated.
quantile() {
  sort -g "$1" | awk -v p="$2" '{ v[NR] = $1 }
    END { x = 1 + (NR - 1) * p; i = int(x); print v[i] + (x - i) * (v[i + 1] - v[i]) }'
}
summary() {
  echo "median $(quantile "$1" 0.5), quartiles $(quantile "$1" 0.25)-$(quantile "$1" 0.75)"
}
# A percentage metric can read below zero, where a ratio of medians has
# no meaning: its change is a difference in points.
change() {
  case $1 in
    *_pct) awk -v b="$(quantile "$1" 0.5)" -v h="$(quantile "$2" 0.5)" \
      'BEGIN { printf "%+.1f pts", h - b }' ;;
    *) awk -v b="$(quantile "$1" 0.5)" -v h="$(quantile "$2" 0.5)" \
      'BEGIN { if (b == 0) printf "n/a"; else printf "%+.1f%%", 100 * (h - b) / b }' ;;
  esac
}

for w in $(echo "$workloads" | tr ',' ' '); do
  i=1
  while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
      run base 0 "pair $i" $metrics; run head 0 "pair $i" $metrics
    else
      run head 0 "pair $i" $metrics; run base 0 "pair $i" $metrics
    fi
    i=$((i + 1))
  done
  run base 1 traced $layers
  run head 1 traced $layers
  echo "ledger-ab: $w, $pairs pairs"
  for m in $metrics; do
    echo "  $m"
    echo "    base $base: $(summary "$tmp/$w.base.$m")"
    echo "    working tree: $(summary "$tmp/$w.head.$m")"
    echo "    median change $(change "$tmp/$w.base.$m" "$tmp/$w.head.$m")"
  done
  wins=$(paste "$tmp/$w.base.host_s" "$tmp/$w.head.host_s" |
    awk '$2 < $1 { w++ } END { print w + 0 }')
  echo "  working tree faster on host_s in $wins of $pairs pairs"
  echo "$wins" > "$tmp/$w.wins"
  for m in $layers; do
    echo "  $m, one traced run per side: base $(cat "$tmp/$w.base.$m")," \
      "working tree $(cat "$tmp/$w.head.$m"), change $(change "$tmp/$w.base.$m" "$tmp/$w.head.$m")"
  done
done

echo "ledger-ab: median change against $base, $pairs pairs per workload"
for w in $(echo "$workloads" | tr ',' ' '); do
  printf '  %-14s' "$w"
  for m in $metrics; do
    printf '  %s %s' "$m" "$(change "$tmp/$w.base.$m" "$tmp/$w.head.$m")"
  done
  printf '  host_s won %s/%s' "$(cat "$tmp/$w.wins")" "$pairs"
  for m in $layers; do
    printf '  %s %s' "$m" "$(change "$tmp/$w.base.$m" "$tmp/$w.head.$m")"
  done
  echo
done
