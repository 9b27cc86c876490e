(** The command-line vocabulary that [warden-cli] and the bench harness
    share: cmdliner converters for protocols, benchmarks, machines,
    observability levels and bounded numbers. A value none of them
    accepts is a usage error (exit 124) naming the valid values, raised
    before any simulation runs. *)

open Cmdliner
open Warden_machine

type proto = [ `Mesi | `Warden | `Msi_bus | `Sisd ]

(** A [--proto] selection: one protocol, MESI and WARDen side by side,
    or the whole zoo ({!Warden_harness.Exp.zoo}). *)
type protos = One of proto | Both | Zoo

val protos_list : protos -> proto list
(** The protocols a selection runs, in {!Warden_harness.Exp.zoo} order. *)

val proto : proto Arg.conv
(** A protocol by its {!Warden_harness.Exp.proto_name}; [msibus] and
    [msi_bus] also name [`Msi_bus]. *)

val protos : zoo:bool -> protos Arg.conv
(** {!proto}, or [both]; with [~zoo:true] also [all] (alias [zoo]). *)

val bench : Warden_pbbs.Spec.t Arg.conv
(** A benchmark of {!Warden_pbbs.Suite}, by name or as a path whose last
    component names one ([bench/fib]). *)

val machine : Config.t Arg.conv
(** [single], [dual], [disagg] (alias [disaggregated]), or a socket count
    in 1..62 ({!Config.many_socket}); the configuration is built at its
    defaults, [obs_level] included. *)

val obs : Config.obs_level Arg.conv
(** An observability level ({!Config.obs_level_of_string}). *)

val positive : int Arg.conv

val in_range : int -> int -> int Arg.conv
(** An integer in [lo..hi], inclusive. *)

val fraction : float Arg.conv
(** A finite float in [\[0, 1\]]. *)

val non_negative : float Arg.conv
(** A finite float [>= 0]. *)

val jobs : int Term.t
(** [--jobs/-j N], a positive integer; absent, the pool's default
    ({!Warden_harness.Pool.default_jobs}), whose [WARDEN_JOBS] must then
    be a positive integer too. *)
