(** The serving-tier driver: generate traffic, serve it on the [Par]
    runtime against the sharded {!Kv} table, measure per-request
    latency, verify, and report.

    One batch at a time, the root task streams requests from the
    {!Workload} generator into a reused host buffer (so host memory
    stays O(batch) however many requests run), stamps the batch's
    admission cycle, and serves it with a fork-join digest tree:
    leaves of [grain] requests execute the KV operations and write a
    small digest into their own (WARD-marked) heap; combiners read
    their children's digests and merge. Per-request sojourn latency —
    completion cycle minus batch admission — lands in a host-side
    {!Warden_obs.Hist} keyed by request kind.

    Everything recorded is a function of simulated time and the
    deterministic engine, so results — including the latency histogram
    — are bit-identical run to run. Verification is schedule-{e independent}: writes store an
    idempotent per-key value, so the final table image must equal a
    host recomputation from the write-key set alone, whichever order
    the scheduler picked. *)

type params = {
  requests : int;
  keys : int;
  theta : float;  (** Zipf skew of key popularity. *)
  read_frac : float;
  scan_frac : float;  (** Remainder of the mix writes. *)
  scan_len : int;
  batch : int;  (** Requests admitted per open-loop burst. *)
  grain : int;  (** Requests per leaf handler task. *)
  shards : int;
  seed : int64;
}

val default : params
(** 1M requests over 64Ki keys, theta 0.99, 85/10/5 read/write/scan,
    batch 8192, grain 64, 8 shards. *)

type result = {
  proto : string;
  verified : bool;  (** Final image, meta counters, digests all check. *)
  violations : int;  (** Reads that returned neither generation. *)
  requests : int;
  reads : int;
  writes : int;
  scans : int;
  distinct_written : int;  (** Cardinality of the write-key set. *)
  checksum : int64;  (** Order-insensitive hash of the final image. *)
  dynamic_sum : int64;
      (** Digest of the values reads and scans returned. Deterministic
          per engine, but schedule-{e dependent}: protocols time reads
          differently, so this is reported, never compared across
          runs. *)
  cycles : int;
  instructions : int;
  invalidations : int;
  downgrades : int;
  msgs : int;
  energy_pj : float;
  rps : float;  (** Requests per simulated second. *)
  lat : Warden_obs.Hist.t;  (** Classes: read, write, scan, 3 = all. *)
}

val cls_all : int
(** Histogram class aggregating every request kind. *)

val run :
  ?params:params -> ?workers:int -> Warden_sim.Engine.t -> result
(** Serve [params.requests] requests on the engine (consuming it, as
    always — one run per engine). *)

val run_proto :
  ?params:params ->
  ?workers:int ->
  machine:Warden_machine.Config.t ->
  proto:[ `Mesi | `Warden | `Msi_bus | `Sisd ] ->
  unit ->
  result
(** Create an engine and {!run} it. *)

val equal_results : result -> result -> bool
(** Agreement on every schedule-independent field (verification flag,
    request counts, write set, final-image checksum) — what "equal
    results" means when comparing protocols. *)

val percentiles : result -> (string * float) list
(** [("p50", _); ("p95", _); ("p99", _); ("p99.9", _)] over all
    requests, in cycles. *)

val summary : result -> string
(** Human-readable report: throughput, per-kind latency percentiles,
    traffic and energy. *)

val json_summary : params -> result -> string
(** One JSON object of simulated quantities only (no host wall-clock),
    so byte-identical output across reruns is the CI gate. *)

val curve :
  ?params:params ->
  machine:Warden_machine.Config.t ->
  proto:[ `Mesi | `Warden | `Msi_bus | `Sisd ] ->
  int list ->
  (int * float) list
(** Requests/sec at each core count (restricting the machine with
    [Config.with_cores]); the scaling curve of the report. *)
