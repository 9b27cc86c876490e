# Convenience targets mirroring the paper's artifact workflow (Appendix A.5):
#   make all_pbbs                      - every benchmark, both protocols
#   make single_pbbs BENCH=fib         - one benchmark, both protocols
#   make activate_one_socket           - select the single-socket machine
#   make activate_two_socket           - select the dual-socket machine
# The machine selection is a file the other targets read, as in the VM.

BENCH ?= fib
MACHINE_FILE := .machine
MACHINE := $(shell cat $(MACHINE_FILE) 2>/dev/null || echo dual)

.PHONY: all build test check fmt bench bench-quick \
        bench-overhead bench-scale bench-serve bench-replay \
        bench-zoo ledger-ab snap-check serve profile \
        all_pbbs single_pbbs activate_one_socket activate_two_socket \
        examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# Deep model-checking sweep across the protocol zoo. MESI, snooping MSI
# and the 2-core SI/SD model close their full reachable state spaces
# (depth 64 far exceeds their closure diameters); WARDen's W states and
# the 3-core SI/SD fence alphabet blow the space up, so those — and the
# two lockstep pairs — run depth-bounded and lean on the long fuzz walk
# for depth. `dune runtest` already runs a faster bounded configuration.
check: build
	dune exec bin/warden_cli.exe -- check -p mesi --depth 64 --fuzz-steps 20000
	dune exec bin/warden_cli.exe -- check -p msi-bus --depth 64 --fuzz-steps 20000
	dune exec bin/warden_cli.exe -- check -p sisd --cores 2 --depth 64 --fuzz-steps 20000
	dune exec bin/warden_cli.exe -- check -p sisd --depth 8 --fuzz-steps 20000
	dune exec bin/warden_cli.exe -- check -p warden --depth 8 --fuzz-steps 20000
	dune exec bin/warden_cli.exe -- check -p equiv --depth 8 --fuzz-steps 20000
	dune exec bin/warden_cli.exe -- check -p msi-lockstep --depth 8 --fuzz-steps 20000

bench:
	dune exec bench/main.exe

# Reduced-scale pass over every experiment (minutes instead of hours).
bench-quick:
	dune exec bench/main.exe -- quick

# Many-socket scale study (README "Scaling to 512 cores"): quick kernels
# on 64- to 512-core numa_mesh machines under both protocols. Writes
# BENCH_scale.json and fails unless WARDen's
# invalidation+downgrade traffic grows strictly slower than MESI's as
# the machine grows.
bench-scale:
	dune exec bench/main.exe -- scale

# Observability overhead gate (DESIGN.md §12): every quick-suite kernel
# on the dual-socket machine at jobs=1, five runs with the event recorder
# off alternating with five at counters level; fails if the counters
# medians sum to more than 1.03x the off medians.
bench-overhead:
	dune exec bench/main.exe -- overhead

# Trace-driven replay gate (README "Snapshotting and replaying a run",
# DESIGN.md §15): record msort's paper-scale commit-order stream, replay
# it with no program model, and fail unless the replayed memory-system
# statistics are byte-identical to the live run's and the stream
# replayed under MESI pays more invalidations and downgrades than under
# WARDen. Writes BENCH_replay.json. What replay costs against the
# program model is a ledger figure (replay-msort vs msort-dual).
bench-replay:
	dune exec bench/main.exe -- replay

# Interleaved A/B host timing of ledger workloads (ledger/README.md),
# and the repo's host-time gate: builds BASE once in a temporary git
# worktree (or takes BASE_EXE=path as the base executable) and the
# working tree once; for each workload in W (one name, a comma-separated
# list, or `all`) alternates N pairs of `ledger.exe --workload W --trace 0
# --seconds 15` runs, and prints each run's end-to-end metrics, both
# sides' medians and quartiles of each, the pairs won on host_s, three
# `--trace 1` runs per side's layer figures (median and range), and a
# closing line per workload with every metric's median change. Fails if
# any workload's host_s median rose by more than BENCHMARK.json's host_s
# bound; its last line is the JSON summary that bench/trajectory.jsonl
# collects, one line per PR.
#   make ledger-ab BASE=<rev> W=<workload>[,<workload>...]|all N=<pairs>
BASE ?= HEAD
W ?= dmm-disagg
N ?= 10
BASE_EXE ?=
ledger-ab:
	BASE_EXE="$(BASE_EXE)" sh bench/ledger_ab.sh $(BASE) $(W) $(N)

# Snapshot bit-identity end to end: snapshot fib's end state, restore it
# into two fresh runs, run one more benchmark round in each, and require
# the resulting snapshots to be byte-identical — a restored continuation
# is a deterministic function of the snapshot.
snap-check: build
	dune exec bin/warden_cli.exe -- bench fib -m single -p warden \
	  --snapshot-out .snap_base.wsnap
	dune exec bin/warden_cli.exe -- bench fib -m single -p warden \
	  --snapshot-in .snap_base.wsnap --snapshot-out .snap_a.wsnap
	dune exec bin/warden_cli.exe -- bench fib -m single -p warden \
	  --snapshot-in .snap_base.wsnap --snapshot-out .snap_b.wsnap
	cmp .snap_a.wsnap .snap_b.wsnap
	@echo "snap-check: two restored continuations are bit-identical"
	@rm -f .snap_base.wsnap .snap_a.wsnap .snap_b.wsnap

# Protocol-zoo gate (README "Protocol zoo"): the fig7/8 kernels under
# all four protocols at quick scales into BENCH_zoo.json, failing unless
# WARDen's inv+down traffic on msort is strictly below both MESI's and
# SI/SD's.
bench-zoo:
	dune exec bench/main.exe -- quick zoo

# The serving tier (README "Simulating a serving tier"): an open-loop
# Zipf KV workload against both protocols with the tail-latency report
# and the MESI-vs-WARDen traffic comparison.
serve: build
	dune exec bin/warden_cli.exe -- serve -m $(MACHINE)

# Serving-tier gate: verified results, bit-equal MESI/WARDen outcomes,
# and strictly lower invalidation+downgrade traffic under WARDen; writes
# the BENCH_serve.json snapshot.
bench-serve:
	dune exec bench/main.exe -- serve

# Coherence-event profile of one benchmark (see README "Profiling a
# benchmark"): counts, latency histograms, hottest blocks, WARD regions,
# plus a Chrome trace_event dump.
profile: build
	dune exec bin/warden_cli.exe -- profile $(BENCH) -m $(MACHINE) \
	  --trace-out $(BENCH).trace.json

# Enforce the committed .ocamlformat (requires ocamlformat; CI installs it).
fmt:
	dune build @fmt

activate_one_socket:
	echo single > $(MACHINE_FILE)

activate_two_socket:
	echo dual > $(MACHINE_FILE)

single_pbbs: build
	dune exec bin/warden_cli.exe -- bench $(BENCH) -m $(MACHINE) -p both

all_pbbs: build
	dune exec bin/warden_cli.exe -- $(if $(filter single,$(MACHINE)),fig7,fig8)

examples: build
	dune exec examples/quickstart.exe
	dune exec examples/prime_sieve.exe
	dune exec examples/bfs_search.exe
	dune exec examples/custom_machine.exe

clean:
	dune clean
	rm -f $(MACHINE_FILE)
