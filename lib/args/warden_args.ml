open Cmdliner
open Warden_machine
open Warden_harness

type proto = [ `Mesi | `Warden | `Msi_bus | `Sisd ]
type protos = One of proto | Both | Zoo

let all_protos = (Exp.zoo :> proto list)

let protos_list = function
  | One p -> [ p ]
  | Both -> [ `Mesi; `Warden ]
  | Zoo -> all_protos

let pp_string ppf s = Format.pp_print_string ppf s

(* Accepts exactly the spellings in [canon] and [aliases]; a rejected
   one is reported with the [canon] spellings only. *)
let choice ~what ~canon ~aliases show =
  let expected =
    match List.rev_map fst canon with
    | last :: (_ :: _ as rest) -> String.concat ", " (List.rev rest) ^ " or " ^ last
    | ns -> String.concat "" ns
  in
  Arg.conv'
    ( (fun s ->
        match List.assoc_opt s (canon @ aliases) with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "unknown %s %S: expected %s" what s expected)),
      fun ppf v -> pp_string ppf (show v) )

let proto_canon = List.map (fun p -> (Exp.proto_name p, p)) all_protos
let proto_aliases = [ ("msibus", `Msi_bus); ("msi_bus", `Msi_bus) ]

let proto =
  choice ~what:"protocol" ~canon:proto_canon ~aliases:proto_aliases
    Exp.proto_name

let protos ~zoo =
  let one = List.map (fun (n, p) -> (n, One p)) in
  choice ~what:"protocol"
    ~canon:
      (one proto_canon @ (("both", Both) :: (if zoo then [ ("all", Zoo) ] else [])))
    ~aliases:(one proto_aliases @ if zoo then [ ("zoo", Zoo) ] else [])
    (function One p -> Exp.proto_name p | Both -> "both" | Zoo -> "all")

let bench =
  let module Suite = Warden_pbbs.Suite in
  Arg.conv'
    ( (fun s ->
        match Suite.find s with
        | Some spec -> Ok spec
        | None -> (
            match Suite.find (Filename.basename s) with
            | Some spec -> Ok spec
            | None ->
                Error
                  (Printf.sprintf "unknown benchmark %S: expected one of %s" s
                     (String.concat ", " (Suite.names ()))))),
      fun ppf spec -> pp_string ppf spec.Warden_pbbs.Spec.name )

(* Socket counts stop at 62: past 62 cores the directory keeps one
   sharer word per socket, at most 62 of them. *)
let machine =
  Arg.conv'
    ( (fun s ->
        match s with
        | "single" -> Ok (Config.single_socket ())
        | "dual" -> Ok (Config.dual_socket ())
        | "disagg" | "disaggregated" -> Ok (Config.disaggregated ())
        | _ -> (
            match int_of_string_opt s with
            | Some n when n > 0 && n <= 62 -> Ok (Config.many_socket ~sockets:n ())
            | _ ->
                Error
                  (Printf.sprintf
                     "unknown machine %S: expected single, dual, disagg or a \
                      socket count in 1..62"
                     s))),
      fun ppf c -> pp_string ppf c.Config.name )

let obs =
  Arg.conv'
    ( (fun s ->
        match Config.obs_level_of_string s with
        | Some l -> Ok l
        | None ->
            Error
              (Printf.sprintf "unknown obs level %S: expected off, counters or full"
                 s)),
      fun ppf l -> pp_string ppf (Config.obs_level_to_string l) )

let number ~parse ~pp ~what ok =
  Arg.conv'
    ( (fun s ->
        match parse s with
        | Some n when ok n -> Ok n
        | _ -> Error (Printf.sprintf "%S is not %s" s what)),
      pp )

let int_conv = number ~parse:int_of_string_opt ~pp:Format.pp_print_int
let float_conv = number ~parse:float_of_string_opt ~pp:Format.pp_print_float
let positive = int_conv ~what:"a positive integer" (fun n -> n > 0)

let in_range lo hi =
  int_conv
    ~what:(Printf.sprintf "an integer in %d..%d" lo hi)
    (fun n -> n >= lo && n <= hi)

let fraction =
  float_conv ~what:"a fraction in [0, 1]" (fun f ->
      Float.is_finite f && f >= 0. && f <= 1.)

let non_negative =
  float_conv ~what:"a finite number >= 0" (fun f -> Float.is_finite f && f >= 0.)

let jobs =
  let resolve = function
    | Some n -> Ok n
    | None -> (
        match Pool.default_jobs () with
        | n -> Ok n
        | exception Invalid_argument msg -> Error msg)
  in
  Term.(
    term_result' ~usage:true
      (const resolve
      $ Arg.(
          value
          & opt (some positive) None
          & info [ "jobs"; "j" ] ~docv:"N"
              ~doc:
                "Domains for running independent simulations in parallel \
                 (default: $(b,WARDEN_JOBS) or the recommended domain \
                 count).")))
