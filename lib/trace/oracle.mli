(** Live execution oracles: dynamic checkers wired into the runtime's
    access and region hooks.

    - {b Disentanglement} (Definition 1): every program access must land in
      the accessing task's own heap or an ancestor's heap.
    - {b WARD regions} (§3.1): while a page is marked, no cross-thread RAW
      at any of its locations, no cross-thread WAW writing different
      values, and no atomics (which require coherence).

    The oracles validate the central claim of §4.1 — that the runtime's
    leaf-page marking only ever marks memory that actually has the WARD
    property — on real executions of the benchmark suite.

    The same pass also gathers the access profile that §7.2's analysis
    quotes: the read/write/atomic split, the block footprint and its
    cross-thread sharing, and an offline {!Wardprop} verdict over each
    marked region's whole lifetime (stronger than the incremental checks,
    which forget a region's history as it goes). *)

type report = {
  accesses : int;  (** Program accesses observed. *)
  ward_accesses : int;  (** Of those, accesses inside active WARD pages. *)
  reads : int;
  writes : int;
  rmws : int;  (** Atomics. [reads + writes + rmws = accesses]. *)
  distinct_blocks : int;  (** Cache blocks touched. *)
  shared_blocks : int;  (** Blocks touched by more than one hardware thread. *)
  ward_verdict : [ `Ward | `Violations of int ];
      (** Offline classification of every marked-region access window:
          how many region epochs were not WARD. *)
  disentanglement_violations : string list;  (** First few, formatted. *)
  ward_violations : string list;
}

val ward_fraction : report -> float

val pp_profile : Format.formatter -> report -> unit
(** The access profile: counts by kind, WARD coverage, footprint and the
    offline verdict, one line each. *)

val with_oracle : (unit -> 'a) -> 'a * report
(** Install the hooks, run the function (typically a whole [Par.run]),
    uninstall, and report. Not reentrant. *)

val check_clean : report -> (unit, string) result
(** [Ok ()] when no violations were observed. *)
