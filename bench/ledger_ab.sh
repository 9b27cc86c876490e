#!/bin/sh
# Interleaved A/B timing of ledger workloads, and the host-time gate.
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
# run's end-to-end metrics (those BENCHMARK.json declares with a bound),
# each side's median and quartiles of each, and how many pairs the
# working tree won on host_s. After the pairs it runs each side three
# more times with `--trace 1` and prints the median and range of those
# runs' runtime.ns_per_access (program model), memsys.hit_ns
# (memory-system hit path), proto.miss_ns (protocol miss transition),
# proto.region_ns (WARD region add/remove), llc.ns_per_read (LLC slice
# read), trace.envelope_ns_per_event (trace envelope round trip) and
# trace.record_overhead_pct (recording against a plain run): they say
# which layer an end-to-end change came from. One traced run swings by
# 15-30% on layers a change does not touch, hence three. Then it prints
# one line per workload with each metric's median change. The order
# inside a pair, traced or not, flips from pair to pair, so a drift in
# host speed does not favour one side. With SEED=N set, every run on
# both sides gets `--seed N`.
#
# The gate: the script exits non-zero when any workload's host_s median
# rose by more than the host_s bound BENCHMARK.json declares. Its last
# line is one JSON object with both sides' medians of every end-to-end
# metric per workload, the host's nproc and the OCaml version; each PR
# appends its own run's line to bench/trajectory.jsonl.
# `make ledger-ab` wraps this script.
set -eu

usage="usage: [BASE_EXE=path] [SEED=n] $0 BASE WORKLOAD[,WORKLOAD...]|all PAIRS"
base=${1:?$usage}
workloads=${2:?$usage}
pairs=${3:?$usage}
traced=3
layers="runtime.ns_per_access memsys.hit_ns proto.miss_ns proto.region_ns llc.ns_per_read trace.envelope_ns_per_event trace.record_overhead_pct"

root=$(git rev-parse --show-toplevel)
bench="$root/BENCHMARK.json"
if [ "$workloads" = all ]; then
  workloads=$(sed -n 's/.*"name": "\([^"]*\)", "why".*/\1/p' "$bench" | paste -s -d, -)
fi
metrics=$(sed -n 's/.*"name": "\([^"]*\)", .*"bound".*/\1/p' "$bench" | paste -s -d' ' -)
bound=$(sed -n 's/.*"name": "host_s", .*"bound": \([0-9.]*\).*/\1/p' "$bench")
[ -n "$metrics" ] && [ -n "$bound" ] || {
  echo "ledger-ab: no end-to-end metrics or host_s bound in $bench" >&2
  exit 2
}
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

# alternate I TRACE LABEL METRIC...: one run per side, the base first
# when I is odd.
alternate() {
  if [ $(($1 % 2)) -eq 1 ]; then first=base second=head; else first=head second=base; fi
  shift
  run $first "$@"
  run $second "$@"
}

# quantile FILE P: the P-quantile of the values in FILE, interpolated.
quantile() {
  sort -g "$1" | awk -v p="$2" '{ v[NR] = $1 }
    END { x = 1 + (NR - 1) * p; i = int(x); print v[i] + (x - i) * (v[i + 1] - v[i]) }'
}
summary() {
  echo "median $(quantile "$1" 0.5), quartiles $(quantile "$1" 0.25)-$(quantile "$1" 0.75)"
}
spread() {
  echo "median $(quantile "$1" 0.5), range $(quantile "$1" 0) to $(quantile "$1" 1)"
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
    alternate "$i" 0 "pair $i" $metrics
    i=$((i + 1))
  done
  i=1
  while [ "$i" -le "$traced" ]; do
    alternate "$i" 1 "traced $i" $layers
    i=$((i + 1))
  done
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
    echo "  $m, $traced traced runs per side: base $(spread "$tmp/$w.base.$m")," \
      "working tree $(spread "$tmp/$w.head.$m"), change $(change "$tmp/$w.base.$m" "$tmp/$w.head.$m")"
  done
done

echo "ledger-ab: median change against $base, $pairs pairs per workload"
failed=
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
  if awk -v b="$(quantile "$tmp/$w.base.host_s" 0.5)" \
    -v h="$(quantile "$tmp/$w.head.host_s" 0.5)" -v bound="$bound" \
    'BEGIN { exit !(h > b * (1 + bound)) }'; then
    failed="$failed $w"
  fi
done
if [ -n "$failed" ]; then
  echo "ledger-ab: REGRESSION: host_s median rose by more than the bound ($bound) on:$failed"
else
  echo "ledger-ab: ok: no workload's host_s median rose by more than the bound ($bound)"
fi

# The closing JSON line: both sides' medians per workload and metric.
printf '{"base": "%s", "pairs": %s, "nproc": %s, "ocaml": "%s", "workloads": {' \
  "$base" "$pairs" "$(nproc)" "$(ocamlfind ocamlc -version 2>/dev/null || ocamlc -version)"
sep=
for w in $(echo "$workloads" | tr ',' ' '); do
  printf '%s"%s": {' "$sep" "$w"
  msep=
  for m in $metrics; do
    printf '%s"%s": {"base": %s, "head": %s}' "$msep" "$m" \
      "$(quantile "$tmp/$w.base.$m" 0.5)" "$(quantile "$tmp/$w.head.$m" 0.5)"
    msep=", "
  done
  printf '}'
  sep=", "
done
echo '}}'
[ -z "$failed" ]
