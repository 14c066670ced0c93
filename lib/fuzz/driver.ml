module Pool = Tpro_engine.Pool
module Supervisor = Tpro_engine.Supervisor
module Campaign = Tpro_engine.Campaign

type failure = {
  scenario : Scenario.t;
  message : string;
  shrunk : (Scenario.t * string) Lazy.t;
}

let check_one s =
  match Oracle.check s with
  | Oracle.Pass -> None
  | Oracle.Fail m -> Some (s, m)

(* Shrinking costs up to 60 oracle runs, and a campaign under a mutant
   fails every trial while only the first failure is printed: the
   shrink runs when a failure is first rendered or saved. *)
let failure (s, m) =
  let shrink () =
    let shrunk = Shrink.minimise Oracle.check s in
    match Oracle.check shrunk with
    | Oracle.Fail m' -> (shrunk, m')
    | Oracle.Pass -> (shrunk, m)
  in
  { scenario = s; message = m; shrunk = Lazy.from_fun shrink }

let map_trials ?pool f idxs =
  match pool with Some p -> Pool.map p f idxs | None -> List.map f idxs

let run ?pool ?(mutant = Scenario.No_mutant) ~seed ~trials () =
  let f i = check_one (Scenario.generate ~seed ~mutant i) in
  map_trials ?pool f (List.init trials Fun.id)
  |> List.filter_map Fun.id |> List.map failure

(* First trial within [budget] for which [f] answers [Some], scanning in
   blocks so a pool can be used without losing the early exit.  Returns
   the trial's 1-based position with the answer. *)
let first_in_blocks ?pool ~budget f =
  let block = match pool with Some p -> max 16 (4 * Pool.size p) | None -> 16 in
  let rec go start =
    if start >= budget then None
    else
      let n = min block (budget - start) in
      let results = map_trials ?pool f (List.init n (fun i -> start + i)) in
      match List.find_mapi (fun i r -> Option.map (fun x -> (start + i + 1, x)) r) results with
      | Some _ as found -> found
      | None -> go (start + n)
  in
  go 0

let first_failure ?pool ?(mutant = Scenario.No_mutant) ~seed ~budget () =
  first_in_blocks ?pool ~budget (fun i ->
      check_one (Scenario.generate ~seed ~mutant i))
  |> Option.map (fun (used, fail) -> (used, failure fail))

(* ------------------------------------------------------------------ *)
(* Supervised campaigns: one {!Campaign} task per trial index, whose
   result is the oracle's verdict.  Every scenario regenerates
   deterministically from its index, so a resumed campaign's report —
   shrunk counterexamples included — is bit-identical to an
   uninterrupted run.  Shrinking happens outside the campaign, when a
   failure is first rendered or saved, for the same reason. *)

let verdict_codec =
  {
    Campaign.encode =
      (function
      | Oracle.Pass -> "pass"
      | Oracle.Fail m -> "fail " ^ Tpro_engine.Frame.escape m);
    decode =
      (fun s ->
        if s = "pass" then Ok Oracle.Pass
        else if String.starts_with ~prefix:"fail " s then
          match Tpro_engine.Frame.unescape (String.sub s 5 (String.length s - 5)) with
          | Some m -> Ok (Oracle.Fail m)
          | None -> Error "malformed escape in verdict"
        else Error ("not a verdict: " ^ s));
  }

let fuzz_task ~fuel ~seed ~mutant i =
  let s = Scenario.generate ~seed ~mutant i in
  Supervisor.Fuel.burn ~amount:(Scenario.size s) fuel;
  Oracle.check s

let topo_task ~fuel ~seed ~mutant ~max_domains ~max_cores i =
  let t = Topology.generate ~seed ~mutant ~max_domains ~max_cores i in
  Supervisor.Fuel.burn ~amount:(Topology.size t) fuel;
  Oracle.check_topology t

type task_failure = { trial : int; error : Supervisor.task_error }

(* Run [trials] verdict tasks as one campaign; return the failing trials
   (index, message) and the lost ones, both in trial order. *)
let verdict_campaign ~sup ?checkpoint ?resume ~kind ~params ~batch ~trials
    execute =
  let o =
    Campaign.run ~sup ?checkpoint ?resume
      {
        Campaign.kind;
        params;
        keys = List.init trials Fun.id;
        execute;
        codec = verdict_codec;
        batch;
      }
  in
  let failing =
    List.filter_map
      (function i, Ok (Oracle.Fail m) -> Some (i, m) | _ -> None)
      o.Campaign.results
  in
  let lost =
    List.filter_map
      (function trial, Error error -> Some { trial; error } | _, Ok _ -> None)
      o.Campaign.results
  in
  (failing, lost, o)

type campaign = {
  failures : failure list;
  trials : int;
  resumed_from : int;
  task_failures : task_failure list;
  notes : string list;
}

let campaign ~sup ?(mutant = Scenario.No_mutant) ?checkpoint
    ?(checkpoint_every = 200) ?resume ~seed ~trials () =
  let failing, task_failures, o =
    verdict_campaign ~sup ?checkpoint ?resume ~kind:"fuzz"
      ~params:
        [ ("seed", string_of_int seed); ("mutant", Scenario.mutant_to_string mutant) ]
      ~batch:checkpoint_every ~trials
      (fuzz_task ~seed ~mutant)
  in
  {
    failures =
      List.map
        (fun (i, m) -> failure (Scenario.generate ~seed ~mutant i, m))
        failing;
    trials;
    resumed_from = o.Campaign.resumed;
    task_failures;
    notes = o.Campaign.notes;
  }

(* ------------------------------------------------------------------ *)
(* Topology campaigns: the N-domain/M-core generalisation.

   No shrinking: a topology's fields are deeply cross-dependent (every
   schedule is a permutation of exactly that core's residents, IPC
   endpoints are edge-list positions, the focus/capacity/miscolour
   domains index the domain array), so field-local shrinking in the
   {!Shrink} style almost never preserves well-formedness — and the
   [(seed, idx)] pair plus the saved replay file is already a complete,
   minimal reproducer. *)

type topo_failure = { topology : Topology.t; topo_message : string }

let check_one_topo t =
  match Oracle.check_topology t with
  | Oracle.Pass -> None
  | Oracle.Fail m -> Some { topology = t; topo_message = m }

let topo_run ?pool ?(mutant = Scenario.No_mutant) ?max_domains ?max_cores ~seed
    ~trials () =
  let f i =
    check_one_topo (Topology.generate ~seed ~mutant ?max_domains ?max_cores i)
  in
  map_trials ?pool f (List.init trials Fun.id)
  |> List.filter_map Fun.id

let topo_first_failure ?pool ?(mutant = Scenario.No_mutant) ?max_domains
    ?max_cores ~seed ~budget () =
  first_in_blocks ?pool ~budget (fun i ->
      check_one_topo (Topology.generate ~seed ~mutant ?max_domains ?max_cores i))

type topo_campaign = {
  topo_failures : topo_failure list;
  topo_trials : int;
  topo_resumed_from : int;
  topo_task_failures : task_failure list;
  topo_notes : string list;
}

let topo_campaign ~sup ?(mutant = Scenario.No_mutant) ?checkpoint
    ?(checkpoint_every = 50) ?resume ?(max_domains = 8) ?(max_cores = 4) ~seed
    ~trials () =
  let failing, task_failures, o =
    verdict_campaign ~sup ?checkpoint ?resume ~kind:"topo"
      ~params:
        [
          ("seed", string_of_int seed);
          ("mutant", Scenario.mutant_to_string mutant);
          ("domains", string_of_int max_domains);
          ("cores", string_of_int max_cores);
        ]
      ~batch:checkpoint_every ~trials
      (topo_task ~seed ~mutant ~max_domains ~max_cores)
  in
  {
    topo_failures =
      List.map
        (fun (i, topo_message) ->
          {
            topology = Topology.generate ~seed ~mutant ~max_domains ~max_cores i;
            topo_message;
          })
        failing;
    topo_trials = trials;
    topo_resumed_from = o.Campaign.resumed;
    topo_task_failures = task_failures;
    topo_notes = o.Campaign.notes;
  }

let pp_topo_failure ppf f =
  Format.fprintf ppf "@[<v>violation: %s@ topology: %a@]" f.topo_message
    Topology.pp f.topology

let pp_failure ppf f =
  let shrunk, shrunk_message = Lazy.force f.shrunk in
  Format.fprintf ppf "@[<v>violation: %s@ scenario: %a@ shrunk to: %a@ \
                      shrunk violation: %s@]"
    f.message Scenario.pp f.scenario Scenario.pp shrunk shrunk_message
