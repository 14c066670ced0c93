(* Campaign jobs: the unit of work the daemon schedules, executes and
   journals.  Every kind is deterministic in its fields — the serve
   layer's recovery story (re-run anything whose completion record was
   lost) depends on it. *)

module Fuel = Tpro_engine.Supervisor.Fuel
module Scenario = Tpro_fuzz.Scenario
module Driver = Tpro_fuzz.Driver
module Prove = Time_protection.Prove

type kind =
  | Ping
  | Spin of int
  | Fuzz of { seed : int; idx : int; mutant : Scenario.mutant }
  | Topo of {
      seed : int;
      idx : int;
      max_domains : int;
      max_cores : int;
      mutant : Scenario.mutant;
    }
  | Prove of { preset : string; seed : int; secrets : int list }
  | Table of { id : string; seeds : int list }

type t = { id : string; deadline : int; kind : kind }

let token_ok s =
  s <> ""
  && String.for_all (fun c -> Char.code c > 0x20 && Char.code c < 0x7f) s

(* ------------------------------------------------------------------ *)
(* Serialisation: one space-separated line.  Integer lists are
   comma-joined, "-" when empty, so every field is one token.          *)

let ints_to_token = function
  | [] -> "-"
  | l -> String.concat "," (List.map string_of_int l)

let ints_of_token = function
  | "-" -> Ok []
  | s -> (
    let parts = String.split_on_char ',' s in
    match List.map int_of_string_opt parts with
    | exception _ -> Error ("bad integer list: " ^ s)
    | opts ->
      if List.for_all Option.is_some opts then
        Ok (List.map Option.get opts)
      else Error ("bad integer list: " ^ s))

let kind_to_string = function
  | Ping -> "ping"
  | Spin n -> Printf.sprintf "spin %d" n
  | Fuzz { seed; idx; mutant } ->
    Printf.sprintf "fuzz %d %d %s" seed idx (Scenario.mutant_to_string mutant)
  | Topo { seed; idx; max_domains; max_cores; mutant } ->
    Printf.sprintf "topo %d %d %d %d %s" seed idx max_domains max_cores
      (Scenario.mutant_to_string mutant)
  | Prove { preset; seed; secrets } ->
    Printf.sprintf "prove %s %d %s" preset seed (ints_to_token secrets)
  | Table { id; seeds } ->
    Printf.sprintf "table %s %s" id (ints_to_token seeds)

let int_of tok =
  match int_of_string_opt tok with
  | Some n -> Ok n
  | None -> Error ("bad integer: " ^ tok)

let ( let* ) = Result.bind

let mutant_of tok =
  match Scenario.mutant_of_string tok with
  | Some m -> Ok m
  | None -> Error ("unknown mutant: " ^ tok)

let kind_of_string line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "ping" ] -> Ok Ping
  | [ "spin"; n ] ->
    let* n = int_of n in
    if n < 0 then Error "spin wants a non-negative count" else Ok (Spin n)
  | [ "fuzz"; seed; idx; mutant ] ->
    let* seed = int_of seed in
    let* idx = int_of idx in
    let* mutant = mutant_of mutant in
    Ok (Fuzz { seed; idx; mutant })
  | [ "topo"; seed; idx; max_domains; max_cores; mutant ] ->
    let* seed = int_of seed in
    let* idx = int_of idx in
    let* max_domains = int_of max_domains in
    let* max_cores = int_of max_cores in
    let* mutant = mutant_of mutant in
    Ok (Topo { seed; idx; max_domains; max_cores; mutant })
  | [ "prove"; preset; seed; secrets ] ->
    let* seed = int_of seed in
    let* secrets = ints_of_token secrets in
    if token_ok preset then Ok (Prove { preset; seed; secrets })
    else Error "bad preset token"
  | [ "table"; id; seeds ] ->
    let* seeds = ints_of_token seeds in
    if token_ok id then Ok (Table { id; seeds })
    else Error "bad experiment id token"
  | _ -> Error ("unparseable job kind: " ^ line)

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)

(* Each campaign kind runs the task function its CLI campaign runs, and
   its payload is what that campaign checkpoints.  Only the fuel charge
   differs on purpose: deadlines are counted in fuel, and a job prices
   evidence at 100 units per secret and a table at 100, where the CLI
   campaigns charge 1 per task. *)
let execute ~fuel kind =
  match kind with
  | Ping ->
    Fuel.burn fuel;
    Ok "pong"
  | Spin n ->
    (* burn in unit steps so a deadline gauge trips mid-spin, the way a
       genuinely runaway job would be cut off part-way *)
    let acc = ref 0 in
    for i = 1 to n do
      Fuel.burn fuel;
      acc := !acc lxor i
    done;
    Ok (Printf.sprintf "spun %d (%d)" n (!acc land 0xff))
  | Fuzz { seed; idx; mutant } ->
    Ok (Driver.verdict_codec.encode (Driver.fuzz_task ~fuel ~seed ~mutant idx))
  | Topo { seed; idx; max_domains; max_cores; mutant } ->
    Ok
      (Driver.verdict_codec.encode
         (Driver.topo_task ~fuel ~seed ~mutant ~max_domains ~max_cores idx))
  | Prove { preset; seed; secrets } -> (
    match Time_protection.Presets.by_name preset with
    | None -> Error ("unknown preset: " ^ preset)
    | Some cfg ->
      let secrets = if secrets = [] then [ 0; 1 ] else secrets in
      Fuel.burn ~amount:(100 * List.length secrets) fuel;
      Ok (Prove.evidence_codec.encode (Prove.evidence_task ~cfg ~seed ~secrets)))
  | Table { id; seeds } -> (
    match Time_protection.Experiments.by_id id with
    | None -> Error ("unknown experiment: " ^ id)
    | Some f ->
      Fuel.burn ~amount:100 fuel;
      let seeds = match seeds with [] -> None | l -> Some l in
      Ok (Time_protection.Table.serialise (f ?seeds ())))

(* ------------------------------------------------------------------ *)
(* Load-generator kind specs                                            *)

let bench_kind spec =
  match String.split_on_char ':' spec with
  | [ "ping" ] -> Ok (fun _ -> Ping)
  | [ "spin"; n ] -> (
    match int_of_string_opt n with
    | Some n when n >= 0 -> Ok (fun _ -> Spin n)
    | _ -> Error ("bad spin count in kind spec: " ^ spec))
  | [ "fuzz"; seed ] -> (
    match int_of_string_opt seed with
    | Some seed ->
      Ok (fun idx -> Fuzz { seed; idx; mutant = Scenario.No_mutant })
    | None -> Error ("bad fuzz seed in kind spec: " ^ spec))
  | [ "topo"; seed ] -> (
    match int_of_string_opt seed with
    | Some seed ->
      Ok
        (fun idx ->
          Topo
            {
              seed;
              idx;
              max_domains = 4;
              max_cores = 2;
              mutant = Scenario.No_mutant;
            })
    | None -> Error ("bad topo seed in kind spec: " ^ spec))
  | _ ->
    Error
      (Printf.sprintf
         "unknown kind spec %s (expected ping, spin:N, fuzz:SEED or \
          topo:SEED)"
         spec)
