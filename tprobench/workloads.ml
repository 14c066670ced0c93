(* The three workloads, driven through the entry points users call:
   [Experiments.all_par] and [Prove.run] (repro), [Driver.campaign]
   (fuzz) and [Driver.topo_campaign] (topo); and job bursts for a
   `tpro serve` daemon fed by [Serve.Client.run_jobs], which the traced
   run measures. *)

open Tpro_fuzz
module Engine = Tpro_engine
module Supervisor = Engine.Supervisor
module Calibrate = Engine.Calibrate
module Job = Tpro_serve.Job
module Client = Tpro_serve.Client
module Experiments = Time_protection.Experiments

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  smoke : bool;
  tpro : string;  (** the tpro executable, for the serve daemon *)
  dir : string;  (** scratch directory inside the checkout *)
}

(* ------------------------------------------------------------------ *)
(* Set-up: calibration probe plus supervisor creation, repeated; the
   run uses the domain count most repetitions decided on. *)

type setup = { sup : Supervisor.t; host : Calibrate.host; setup_s : float }

let setup_supervisor ~reps =
  let runs =
    List.init reps (fun _ ->
        let (h, sup), dt =
          Util.time (fun () ->
              let h = Calibrate.probe () in
              Calibrate.set_override (Some h);
              (h, Supervisor.create ()))
        in
        Supervisor.shutdown sup;
        (h, dt))
  in
  let votes d = List.length (List.filter (fun (h, _) -> h.Calibrate.recommended = d) runs) in
  let host, _ =
    List.fold_left
      (fun (best, n) (h, _) ->
        let v = votes h.Calibrate.recommended in
        if v > n then (h, v) else (best, n))
      (fst (List.hd runs), 0)
      runs
  in
  Calibrate.set_override (Some host);
  { sup = Supervisor.create (); host; setup_s = Util.median (List.map snd runs) }

(* The sequential reference for [engine.speedup]: one domain, with the
   calibrated workers' minor-heap size so both sides collect alike. *)
let sequential host f =
  let saved = (Gc.get ()).Gc.minor_heap_size in
  Calibrate.apply_minor_heap host.Calibrate.minor_heap_words;
  Fun.protect
    ~finally:(fun () -> Calibrate.apply_minor_heap saved)
    (fun () -> Supervisor.with_supervisor ~domains:1 (fun sup -> snd (Util.time (fun () -> f sup))))

(* ------------------------------------------------------------------ *)
(* One unit of measured work and the run's summary. *)

type unit_result = { wall : float; ops : int; failed : int }

type e2e = {
  setup_s : float;
  units : unit_result list;
  peak_rss_mb : float;
  extra_failed : int;  (** failed checks outside the measured units *)
}

(* Run [f i] for units i = 0, 1, ... while another unit as long as the
   last one still fits in [seconds], so long units (a repro pass takes
   seconds) do not overrun the run. *)
let loop ~seconds ~min_units ~wall f =
  let t0 = Util.now () in
  let rec go i last acc =
    if i >= min_units && Util.now () -. t0 +. last > seconds then List.rev acc
    else
      let u = f i in
      go (i + 1) (wall u) (u :: acc)
  in
  go 0 0. []

let unit_wall (u : unit_result) = u.wall

let batch_seed seed b = (seed * 10_000) + b

(* ------------------------------------------------------------------ *)
(* repro *)

let golden_path = "test/golden_experiments.csv"

(* Tables that differ from the golden file, located by walking the
   produced CSV blocks along it; at least 1 if the files differ. *)
let table_failures ~golden tables =
  let csvs = List.map Time_protection.Table.to_csv tables in
  let _, bad =
    List.fold_left
      (fun (off, bad) csv ->
        let n = String.length csv in
        let ok = off + n <= String.length golden && String.sub golden off n = csv in
        (off + n, if ok then bad else bad + 1))
      (0, 0) csvs
  in
  if String.concat "" csvs = golden then 0 else max 1 bad

let theorem_failures (o : Time_protection.Prove.outcome) =
  List.fold_left
    (fun bad (r : Time_protection.Prove.report) ->
      let th = r.Time_protection.Prove.theorem in
      let ok =
        r.Time_protection.Prove.lost = []
        &&
        match r.Time_protection.Prove.preset with
        | "full" ->
          th.Tpro_secmodel.Theorem.holds
          && List.exists
               (fun l -> l.Tpro_secmodel.Lemma.lid = "scope:memory interconnect")
               th.Tpro_secmodel.Theorem.lemmas
        | _ -> th.Tpro_secmodel.Theorem.refuted <> []
      in
      if ok then bad else bad + 1)
    0 o.Time_protection.Prove.reports

let repro_ops = List.length Experiments.ids + List.length Layers.proof_presets

let repro_pass ~golden sup =
  let (tables, proofs), wall =
    Util.time (fun () ->
        let tables = Experiments.all_par ?pool:(Supervisor.pool sup) () in
        let proofs =
          Time_protection.Prove.run ~sup ~acknowledge:Layers.acknowledge
            ~presets:Layers.proof_presets ()
        in
        (tables, proofs))
  in
  let failed = table_failures ~golden tables + theorem_failures proofs in
  { wall; ops = repro_ops; failed }

let repro ctx =
  let golden = Util.read_file golden_path in
  let s = setup_supervisor ~reps:(if ctx.smoke then 2 else 5) in
  if not ctx.smoke then ignore (repro_pass ~golden s.sup);
  let units =
    loop ~seconds:ctx.seconds ~min_units:(if ctx.smoke then 1 else 3) ~wall:unit_wall (fun _ ->
        repro_pass ~golden s.sup)
  in
  let rss = Util.self_peak_rss_mb () in
  Supervisor.shutdown s.sup;
  { setup_s = s.setup_s; units; peak_rss_mb = rss; extra_failed = 0 }

(* ------------------------------------------------------------------ *)
(* fuzz and topo: campaigns in fixed-size batches, plus the mutant each
   oracle must kill on the run's seed *)

let mutant_budget = 200

(* The traced run times the benchmark's copies of the oracles
   ([Layers.check_nonint], [Layers.check_topology]).  They must reject
   the trial the real oracle killed the mutant on, or they have drifted
   from it. *)
let copy_rejects check x = match check x with false -> true | true | (exception _) -> false

let fuzz_mutant_kill ?pool seed =
  match Driver.first_failure ?pool ~mutant:Scenario.Skip_flush ~seed ~budget:mutant_budget () with
  | Some (used, f)
    when Util.contains
           ~sub:("lemma flush:" ^ Scenario.skip_target f.Driver.scenario ^ " refuted")
           f.Driver.message
         && copy_rejects Layers.check_nonint f.Driver.scenario ->
    Some used
  | _ -> None

(* The campaign names the pair and a lemma; the planted pair itself
   (miscoloured domain varied, robbed domain observing) must then be
   refuted by partition:llc. *)
let topo_mutant_kill ?pool seed =
  match Driver.topo_first_failure ?pool ~mutant:Scenario.Miscolour ~seed ~budget:mutant_budget () with
  | Some (used, f) -> (
    let t = f.Driver.topology in
    match Oracle.check_topology_pair t ~vary:t.Topology.mis_src ~obs:t.Topology.mis_dst with
    | Oracle.Fail m
      when Util.contains ~sub:"lemma partition:llc refuted" m
           && copy_rejects Layers.check_topology t ->
      Some used
    | _ -> None)
  | None -> None

(* One unit is one campaign of the CLI's default size: `tpro fuzz` runs
   1,000 trials, `tpro topo` 200 topologies. *)
let fuzz_batch ctx = if ctx.smoke then 16 else 1_000
let topo_batch ctx = if ctx.smoke then 4 else 200

let fuzz_unit ~sup ~seed ~trials =
  let c, wall = Util.time (fun () -> Driver.campaign ~sup ~seed ~trials ()) in
  let failed = List.length c.Driver.failures + List.length c.Driver.task_failures in
  { wall; ops = trials; failed }

let topo_pairs ~seed ~trials =
  List.fold_left
    (fun acc idx -> acc + List.length (Topology.pairs (Topology.generate ~seed idx)))
    0 (List.init trials Fun.id)

let topo_unit ~sup ~seed ~trials =
  let pairs = topo_pairs ~seed ~trials in
  let c, wall = Util.time (fun () -> Driver.topo_campaign ~sup ~seed ~trials ()) in
  let failed = List.length c.Driver.topo_failures + List.length c.Driver.topo_task_failures in
  { wall; ops = pairs; failed }

let campaign ctx ~unit_of ~batch ~mutant_kill =
  let s = setup_supervisor ~reps:(if ctx.smoke then 2 else 5) in
  let sup = s.sup in
  if not ctx.smoke then
    ignore (unit_of ~sup ~seed:(batch_seed ctx.seed 9_999) ~trials:(batch / 4));
  let units =
    loop ~seconds:ctx.seconds ~min_units:(if ctx.smoke then 1 else 5) ~wall:unit_wall (fun b ->
        unit_of ~sup ~seed:(batch_seed ctx.seed b) ~trials:batch)
  in
  let rss = Util.self_peak_rss_mb () in
  let killed = mutant_kill ?pool:(Supervisor.pool sup) ctx.seed in
  Supervisor.shutdown sup;
  {
    setup_s = s.setup_s;
    units;
    peak_rss_mb = rss;
    extra_failed = (if killed = None then 1 else 0);
  }

let fuzz ctx = campaign ctx ~unit_of:fuzz_unit ~batch:(fuzz_batch ctx) ~mutant_kill:fuzz_mutant_kill
let topo ctx = campaign ctx ~unit_of:topo_unit ~batch:(topo_batch ctx) ~mutant_kill:topo_mutant_kill

(* ------------------------------------------------------------------ *)
(* serve bursts: one tenant, closed loop with a fixed window, fresh
   journal.  Window and the tiny job are `tpro client --bench`'s defaults
   (window 64, spin:50).  A seeded 0.5% of the jobs are fuzz trials
   instead, drawn from 512 per seed, so tiny jobs queue behind some
   simulation in the daemon's batches. *)

let window = 64
let spin = 50
let fuzz_share_per_mille = 5
let fuzz_pool = 512

let burst_jobs ~seed ~burst n =
  List.init n (fun i ->
      let r = Util.mix seed ((burst * 1_000_003) + i) in
      let kind =
        if r mod 1000 < fuzz_share_per_mille then
          Job.Fuzz { seed; idx = r / 1000 mod fuzz_pool; mutant = Scenario.No_mutant }
        else Job.Spin spin
      in
      { Job.id = Printf.sprintf "b%d-%06d" burst i; deadline = 0; kind })

(* Expected outcomes, computed in-process with [Job.execute] (memoised by
   kind: the mix repeats its fuzz trials). *)
let expected = Hashtbl.create 1024

let execute kind =
  match Job.execute ~fuel:(Supervisor.Fuel.make None) kind with
  | Ok p -> Ok p
  | Error e -> Error (Tpro_serve.Wire.Rejected, e)

let expect kind =
  let key = Job.kind_to_string kind in
  match Hashtbl.find_opt expected key with
  | Some o -> o
  | None ->
    let o = execute kind in
    Hashtbl.replace expected key o;
    o

(* Fill the memo for every kind of [jobs] not yet in it, on a pool. *)
let expect_all jobs =
  let missing = Hashtbl.create 1024 in
  List.iter
    (fun (j : Job.t) ->
      let key = Job.kind_to_string j.Job.kind in
      if not (Hashtbl.mem expected key) then Hashtbl.replace missing key j.Job.kind)
    jobs;
  let kinds = Hashtbl.fold (fun k kind acc -> (k, kind) :: acc) missing [] in
  let outcomes = Engine.Pool.with_pool (fun p -> Engine.Pool.map p (fun (_, kind) -> execute kind) kinds) in
  List.iter2 (fun (k, _) o -> Hashtbl.replace expected k o) kinds outcomes

type burst_report = { report : Client.report; jobs : Job.t list }

let burst ~socket ~seed ~burst n =
  let jobs = burst_jobs ~seed ~burst n in
  match Client.run_jobs ~socket ~tenant:"bench" ~window jobs with
  | Error e -> failwith ("serve burst: " ^ e)
  | Ok report -> { report; jobs }

(* Every result byte-identical to the in-process execution, and every
   job delivered once.  The client folds redeliveries into one result per
   id, so a redelivery or a reconnect (after which the client resubmits)
   is counted from its report: in a fault-free run both must be 0. *)
let burst_failures b =
  let r = b.report in
  let got = r.Client.results in
  if List.length got <> List.length b.jobs then List.length b.jobs
  else
    r.Client.duplicate_deliveries + r.Client.reconnects
    + List.fold_left2
        (fun bad (j : Job.t) (id, outcome) ->
          if id = j.Job.id && outcome = expect j.Job.kind then bad else bad + 1)
        0 b.jobs got

(* Daemon-side consistency: nothing executed twice, nothing pending. *)
let daemon_consistent d ~submitted =
  Daemon.stat d "accepted" = submitted
  && Daemon.stat d "executed" = submitted
  && Daemon.stat d "completed" = submitted

let run ctx =
  match ctx.workload with
  | "repro" -> repro ctx
  | "fuzz" -> fuzz ctx
  | "topo" -> topo ctx
  | w -> invalid_arg ("unknown workload " ^ w)
