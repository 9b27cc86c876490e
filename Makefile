# Convenience targets mirroring the paper's artifact workflow (Appendix A.5):
#   make all_pbbs                      - every benchmark, both protocols
#   make single_pbbs BENCH=fib         - one benchmark, both protocols
#   make activate_one_socket           - select the single-socket machine
#   make activate_two_socket           - select the dual-socket machine
# The machine selection is a file the other targets read, as in the VM.

BENCH ?= fib
MACHINE_FILE := .machine
MACHINE := $(shell cat $(MACHINE_FILE) 2>/dev/null || echo dual)

.PHONY: all build test check fmt bench bench-quick bench-json bench-compare \
        bench-overhead bench-scale bench-serve bench-replay \
        bench-zoo snap-check serve profile \
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

# Machine-readable simulator-performance snapshot into BENCH_sim.json
# (host ms/run per kernel plus simulated MIPS); every run also appends a
# one-line record to BENCH_history.jsonl.
bench-json:
	dune exec bench/main.exe -- json

# Regression gate: fail if BENCH_sim.json's sim_mips fell more than 10%
# below the committed BENCH_baseline.json. Run bench-json first.
bench-compare:
	dune exec bench/main.exe -- compare

# Many-socket scale study (README "Scaling to 512 cores"): quick kernels
# on 64- to 512-core numa_mesh machines under both protocols. Writes the
# compare-compatible BENCH_scale.json and fails unless WARDen's
# invalidation+downgrade traffic grows strictly slower than MESI's as
# the machine grows.
bench-scale:
	dune exec bench/main.exe -- scale

# Observability overhead gate: snapshot the suite with the event recorder
# off and again at counters level, then fail if counters cost more than
# 3% of simulator throughput (DESIGN.md §12).
bench-overhead:
	dune exec bench/main.exe -- json --obs off
	cp BENCH_sim.json BENCH_obs_off.json
	dune exec bench/main.exe -- json --obs counters
	dune exec bench/main.exe -- compare --overhead BENCH_obs_off.json BENCH_sim.json

# Trace-driven replay gate (README "Snapshotting and replaying a run",
# DESIGN.md §15): record msort's paper-scale commit-order stream, replay
# it with no program model, and fail unless the replayed memory-system
# statistics are byte-identical to the live run's and the replay runs at
# least 2.5x faster end to end. Writes BENCH_replay.json.
bench-replay:
	dune exec bench/main.exe -- replay

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
# SI/SD's. `bench compare --zoo` re-runs the gate over the snapshot.
bench-zoo:
	dune exec bench/main.exe -- quick zoo

# The serving tier (README "Simulating a serving tier"): an open-loop
# Zipf KV workload against both protocols with the tail-latency report
# and the MESI-vs-WARDen traffic comparison.
serve: build
	dune exec bin/warden_cli.exe -- serve -m $(MACHINE)

# Serving-tier gate: verified results, bit-equal MESI/WARDen outcomes,
# and strictly lower invalidation+downgrade traffic under WARDen; writes
# the compare-compatible BENCH_serve.json snapshot.
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
