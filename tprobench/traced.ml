(* The traced run ([--trace 1]).

   Phase A runs the workload's fixed-size work three ways: through the
   public entry point (the untraced reference), the same on one domain
   (the sequential reference for [engine.speedup]), and as the
   benchmark's own span-wrapped decomposition under a root span, in
   interleaved rounds.  Phase B measures, at fixed sizes, every layer row the decomposition
   does not produce, so every traced run reports every row.  Rows are
   then read off the spans. *)

open Tpro_fuzz
open Workloads
module Pool = Engine.Pool
module Ni = Time_protection.Ni_scenario
module Presets = Time_protection.Presets

let span = Span.with_

(* Scheduler and GC counters over traced work, and the busy time of its
   top-level tasks against the capacity (root wall x domains). *)
type tally = {
  busy : float;
  capacity : float;
  steals : int;
  executed : int;
  injected : int;
  minor : int;
  major : int;
  promoted_words : float;
}

let sum_tally a b =
  {
    busy = a.busy +. b.busy;
    capacity = a.capacity +. b.capacity;
    steals = a.steals + b.steals;
    executed = a.executed + b.executed;
    injected = a.injected + b.injected;
    minor = a.minor + b.minor;
    major = a.major + b.major;
    promoted_words = a.promoted_words +. b.promoted_words;
  }

let no_tally =
  { busy = 0.; capacity = 0.; steals = 0; executed = 0; injected = 0; minor = 0; major = 0; promoted_words = 0. }

let no_counts = { Layers.steps = 0; cycles = 0; boundaries = 0; executions = 0 }

let sum_counts (a : Layers.counts) (b : Layers.counts) =
  {
    Layers.steps = a.steps + b.steps;
    cycles = a.cycles + b.cycles;
    boundaries = a.boundaries + b.boundaries;
    executions = a.executions + b.executions;
  }

type phase_a = {
  roots : Span.t list;
  untraced_s : float;
  seq_s : float;
  attempted : int;
  failed : int;
  counts : Layers.counts;
  tally : tally;
}

(* [f ()] under a root span: its result, the root span, the
   simulated counts and the engine tally it moved. *)
let traced_round sup ~domains f =
  let stats () =
    match Supervisor.pool sup with
    | Some p ->
      let s = Pool.stats p in
      (s.Pool.steals, s.Pool.tasks_executed, s.Pool.tasks_injected)
    | None -> (0, 0, 0)
  in
  let g0 = Gc.quick_stat () and s0, e0, i0 = stats () in
  let id = ref 0 in
  let r, counts = Layers.counting (fun () -> span "workload" (fun () -> id := Span.current_id (); f ())) in
  let g1 = Gc.quick_stat () and s1, e1, i1 = stats () in
  let root = List.find (fun s -> s.Span.id = !id) (Span.all ()) in
  let busy =
    Util.sum
      (List.filter_map
         (fun s ->
           if s.Span.name = "engine.task" && s.Span.parent = !id then Some (Span.dur s) else None)
         (Span.all ()))
  in
  ( r,
    root,
    counts,
    {
      busy;
      capacity = Span.dur root *. float_of_int domains;
      steals = s1 - s0;
      executed = e1 - e0;
      injected = i1 - i0;
      minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major = g1.Gc.major_collections - g0.Gc.major_collections;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    } )

(* Phase A in interleaved rounds: round r runs the untraced reference
   [untraced r] (wall, failures), the sequential reference [seq r] (wall)
   and the traced decomposition [traced r] (failures) back to back, so a
   host whose speed drifts over tens of seconds biases all three alike. *)
let interleave (s : setup) ~rounds ~attempted ~untraced ~seq ~traced =
  let domains = s.host.Calibrate.recommended in
  let rec go r a =
    if r = rounds then a
    else
      let u_wall, u_failed = untraced r in
      let seq_wall = seq r in
      let t_failed, root, counts, tally = traced_round s.sup ~domains (fun () -> traced r) in
      go (r + 1)
        {
          a with
          roots = a.roots @ [ root ];
          untraced_s = a.untraced_s +. u_wall;
          seq_s = a.seq_s +. seq_wall;
          failed = a.failed + u_failed + t_failed;
          counts = sum_counts a.counts counts;
          tally = sum_tally a.tally tally;
        }
  in
  go 0
    {
      roots = [];
      untraced_s = 0.;
      seq_s = 0.;
      attempted;
      failed = 0;
      counts = no_counts;
      tally = no_tally;
    }

let falses l = List.length (List.filter not l)
let rounds ctx = if ctx.smoke then 1 else 3

(* ------------------------------------------------------------------ *)

let fuzz_a ctx (s : setup) =
  let n = fuzz_batch ctx in
  let seed r = batch_seed ctx.seed (5_000 + r) in
  if not ctx.smoke then ignore (fuzz_unit ~sup:s.sup ~seed:(batch_seed ctx.seed 9_999) ~trials:(n / 4));
  interleave s ~rounds:(rounds ctx) ~attempted:(n * rounds ctx)
    ~untraced:(fun r ->
      let u = fuzz_unit ~sup:s.sup ~seed:(seed r) ~trials:n in
      (u.wall, u.failed))
    ~seq:(fun r -> sequential s.host (fun sup -> Driver.campaign ~sup ~seed:(seed r) ~trials:n ()))
    ~traced:(fun r ->
      falses
        (Layers.fan s.sup ~label:"fuzz-trial" ~group:Layers.fuzz_group
           (Layers.fuzz_trial ~seed:(seed r)) (List.init n Fun.id)))

let topo_a ctx (s : setup) =
  let n = topo_batch ctx in
  let seed r = batch_seed ctx.seed (5_000 + r) in
  if not ctx.smoke then ignore (topo_unit ~sup:s.sup ~seed:(batch_seed ctx.seed 9_999) ~trials:(n / 4));
  interleave s ~rounds:(rounds ctx) ~attempted:(n * rounds ctx)
    ~untraced:(fun r ->
      let u = topo_unit ~sup:s.sup ~seed:(seed r) ~trials:n in
      (u.wall, u.failed))
    ~seq:(fun r -> sequential s.host (fun sup -> Driver.topo_campaign ~sup ~seed:(seed r) ~trials:n ()))
    ~traced:(fun r ->
      falses
        (Layers.fan s.sup ~label:"topo-trial" ~group:Layers.topo_group
           (Layers.topo_trial ~seed:(seed r)) (List.init n Fun.id)))

let repro_a ctx (s : setup) =
  let golden = Util.read_file golden_path in
  let rounds = if ctx.smoke then 1 else 2 in
  if not ctx.smoke then ignore (repro_pass ~golden s.sup);
  interleave s ~rounds ~attempted:(repro_ops * rounds)
    ~untraced:(fun _ ->
      let u = repro_pass ~golden s.sup in
      (u.wall, u.failed))
    ~seq:(fun _ -> sequential s.host (fun sup -> ignore (repro_pass ~golden sup)))
    ~traced:(fun _ ->
      let tables = Layers.tables s.sup () in
      let proofs = Layers.prove s.sup () in
      table_failures ~golden tables + List.fold_left (fun a o -> a + theorem_failures o) 0 proofs)

(* A daemon over a fresh journal runs one burst of [n] jobs; then it is
   stopped and restarted with --resume over the finished journal, timed
   until its socket answers. *)
let with_daemon ctx ~dir n =
  let d, _ = Daemon.start ~tpro:ctx.tpro ~dir () in
  let b, consistent =
    Fun.protect
      ~finally:(fun () -> if Daemon.alive d.Daemon.pid then Daemon.stop d)
      (fun () ->
        let b = burst ~socket:d.Daemon.socket ~seed:ctx.seed ~burst:0 n in
        (b, daemon_consistent d ~submitted:n))
  in
  let d, recovery_s = Daemon.start ~tpro:ctx.tpro ~dir ~resume:true () in
  let recovered =
    Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () -> Daemon.stat d "recovered_results")
  in
  expect_all b.jobs;
  let r = b.report in
  let failed =
    burst_failures b + (if consistent then 0 else 1) + if recovered = n then 0 else 1
  in
  ( failed,
    [
      ("serve.recovery_s", recovery_s);
      ("serve.duplicate_deliveries", float_of_int r.Client.duplicate_deliveries);
      ("serve.reconnects", float_of_int r.Client.reconnects);
      ("serve.busy_retries", float_of_int r.Client.busy_retries);
    ] )

(* ------------------------------------------------------------------ *)
(* Phase B inputs: the machine shape and kernel inputs of the workload. *)

let nonint_scenarios seed k =
  let rec go idx acc =
    if List.length acc = k || idx > 10_000 then List.rev acc
    else
      let s = Scenario.generate ~seed idx in
      go (idx + 1) (if s.Scenario.oracle = Scenario.Nonint then s :: acc else acc)
  in
  go 0 []

let fuzz_shape seed = Scenario.machine_config (List.hd (nonint_scenarios seed 1))

(* The first trial indices of [seed] that give [nonint], [legacy] and
   [capacity] trials of each oracle, in index order.  A campaign draws
   capacity trials 1 time in 32, so a plain run of the first few dozen
   indices has none on some seeds and its rows could not be read. *)
let fuzz_probe_indices seed ~nonint ~legacy ~capacity =
  let want = function
    | Scenario.Nonint -> nonint
    | Scenario.Legacy -> legacy
    | Scenario.Capacity -> capacity
  in
  let taken = Hashtbl.create 3 in
  let rec go idx acc =
    if List.length acc = nonint + legacy + capacity then List.rev acc
    else if idx > 100_000 then failwith "fuzz probe: too few trials of some oracle"
    else
      let o = (Scenario.generate ~seed idx).Scenario.oracle in
      let n = Option.value ~default:0 (Hashtbl.find_opt taken o) in
      if n < want o then begin
        Hashtbl.replace taken o (n + 1);
        go (idx + 1) (idx :: acc)
      end
      else go (idx + 1) acc
  in
  go 0 []

let topo_shape seed =
  let rec go idx =
    let t = Topology.generate ~seed idx in
    if t.Topology.n_cores >= 2 || idx > 1_000 then Topology.machine_config t else go (idx + 1)
  in
  go 0

let scenario_builds seed =
  List.map
    (fun s -> (Scenario.max_steps, (fun ~secret -> Scenario.build_ni s ~secret), s.Scenario.secret_a))
    (nonint_scenarios seed 16)

let ni_builds =
  List.map
    (fun seed -> (1_000_000, (fun ~secret -> Ni.build ~cfg:Presets.full ~seed ~secret), 0))
    Ni.default_seeds

let has name spans = List.exists (fun s -> s.Span.name = name) spans

(* Spans under every root named [root]. *)
let under_roots root =
  let all = Span.all () in
  List.concat_map (fun r -> Span.subtree r all) (List.filter (fun s -> s.Span.name = root) all)

let durations name spans =
  List.filter_map (fun s -> if s.Span.name = name then Some (Span.dur s) else None) spans

let mean_or_fail name = function
  | [] -> failwith ("no spans for " ^ name)
  | l -> Util.mean l

(* ------------------------------------------------------------------ *)

type result = { correct : bool; attempted : int; failed : int; rows : (string * float) list }

(* The exact counts of the default seed (0) and of the self-test (seed 1,
   smoke size), one line per workload, seed and size.  A change that
   alters the simulated work must update this file. *)
let expected_counts_path = "tprobench/expected_counts.txt"

let counts_key ctx =
  Printf.sprintf "%s %d %s" ctx.workload ctx.seed (if ctx.smoke then "smoke" else "full")

let counts_file ctx =
  Filename.concat ctx.dir
    (Printf.sprintf "counts-%s-seed%d%s.txt" ctx.workload ctx.seed (if ctx.smoke then "-smoke" else ""))

(* Exact counts must equal the committed ones where the file covers the
   inputs.  Elsewhere they must equal the first traced run's on the same
   inputs in this checkout, which is recorded once and never rewritten. *)
let same_counts ctx rows =
  let now =
    String.concat " "
      (counts_key ctx
      :: List.map (fun k -> Printf.sprintf "%s=%.0f" k (List.assoc k rows)) Names.exact_counts)
  in
  prerr_endline ("exact counts: " ^ now);
  let committed =
    List.find_opt
      (String.starts_with ~prefix:(counts_key ctx ^ " "))
      (String.split_on_char '\n' (Util.read_file expected_counts_path))
  in
  let recorded = counts_file ctx in
  let expected, source =
    match committed with
    | Some line -> (Some line, expected_counts_path)
    | None -> ((if Sys.file_exists recorded then Some (Util.read_file recorded) else None), recorded)
  in
  match expected with
  | None ->
    Util.write_file recorded now;
    true
  | Some e when e = now -> true
  | Some e ->
    prerr_endline (Printf.sprintf "exact counts differ from %s:\n  want %s\n  got  %s" source e now);
    false

let run ctx =
  let s = setup_supervisor ~reps:1 in
  let sup = s.sup in
  let a =
    match ctx.workload with
    | "fuzz" -> fuzz_a ctx s
    | "topo" -> topo_a ctx s
    | "repro" -> repro_a ctx s
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let phase_a = List.concat_map (fun r -> Span.subtree r (Span.all ())) a.roots in
  (* Phase B *)
  let w = ctx.workload in
  let hw =
    Probes.hw
      (match w with
      | "topo" -> topo_shape (batch_seed ctx.seed 5_000)
      | "repro" -> Ni.machine_config_with ~with_btb:true ~seed:0
      | _ -> fuzz_shape ctx.seed)
  in
  let kernel_counts =
    if has "kernel.execute" phase_a then a.counts
    else
      snd
        (Layers.counting (fun () ->
             Probes.kernel (if w = "repro" then ni_builds else scenario_builds ctx.seed)))
  in
  let sweep_counts =
    if has "secmodel.sweep" phase_a then a.counts
    else snd (Layers.counting Probes.secmodel_sweep)
  in
  let lo_view_us = Probes.lo_view_us () in
  let collect_ms = Probes.collect_ms () in
  let exhaustive_ms = Probes.exhaustive_ms () in
  let channel = Probes.channel () in
  let engine_probe = Probes.engine ~dir:ctx.dir sup in
  let serve_probe =
    let kinds =
      List.filter_map
        (fun j -> match j.Job.kind with Job.Fuzz _ as k -> Some k | _ -> None)
        (burst_jobs ~seed:ctx.seed ~burst:0 10_000)
    in
    Probes.serve ~dir:ctx.dir ~fuzz_kinds:(List.filteri (fun i _ -> i < 16) kinds)
  in
  let daemon_failed, daemon_rows =
    with_daemon ctx ~dir:(Filename.concat ctx.dir "probe-serve") (if ctx.smoke then 100 else 400)
  in
  let probe_seed = batch_seed ctx.seed 6_000 in
  let fan_probe root idxs trial =
    span root (fun () -> falses (Layers.fan sup ~label:root (trial ~seed:probe_seed) idxs))
  in
  (* run on every workload: a small fuzz or topo Phase A may lack an
     oracle kind, whose rows then come from here *)
  let fuzz_failed =
    fan_probe "probe.fuzz"
      (if ctx.smoke then fuzz_probe_indices probe_seed ~nonint:7 ~legacy:4 ~capacity:1
       else fuzz_probe_indices probe_seed ~nonint:38 ~legacy:20 ~capacity:2)
      Layers.fuzz_trial
  in
  let topo_failed =
    fan_probe "probe.topo" (List.init (if ctx.smoke then 4 else 16) Fun.id) Layers.topo_trial
  in
  let core_failed =
    if w = "repro" then 0
    else
      span "probe.core" (fun () ->
          ignore (Layers.tables sup ~seeds:[ 0 ] ());
          List.length
            (List.filter (fun o -> theorem_failures o > 0) (Layers.prove sup ~seeds:[ 0 ] ())))
  in
  let pool = Supervisor.pool sup in
  let fuzz_kill = fuzz_mutant_kill ?pool ctx.seed in
  let topo_kill = topo_mutant_kill ?pool ctx.seed in
  let execute_ok =
    let max_steps, build, secret = List.hd (scenario_builds ctx.seed) in
    Layers.execute_matches ~max_steps build secret
  in
  Supervisor.shutdown sup;
  (* rows *)
  let pick ~probe name =
    match durations name phase_a with [] -> durations name (under_roots probe) | l -> l
  in
  (* a table's own time, without other tables its domain ran while
     helping with nested work *)
  let self_of ~probe name =
    let scope = if has name phase_a then phase_a else under_roots probe in
    List.fold_left
      (fun acc (s, self) -> if s.Span.name = name then acc +. self else acc)
      0. (Span.self_times scope)
  in
  let mean_of ~probe name scale = mean_or_fail name (pick ~probe name) *. scale in
  let count_of ~probe name = float_of_int (List.length (pick ~probe name)) in
  let kexec = pick ~probe:"probe.kernel" "kernel.execute" in
  let topo_checks = List.map (fun d -> d *. 1e3) (pick ~probe:"probe.topo" "fuzz.check_topology") in
  let layer_self l =
    match Span.layer_self_seconds phase_a l with
    | x when x > 0. -> x
    | _ ->
      let ids = Hashtbl.create 1024 in
      List.iter (fun s -> Hashtbl.replace ids s.Span.id ()) phase_a;
      Span.layer_self_seconds
        (List.filter (fun s -> not (Hashtbl.mem ids s.Span.id)) (Span.all ()))
        l
  in
  let kill = function Some n -> float_of_int n | None -> 0. in
  let traced_s = Util.sum (List.map Span.dur a.roots) in
  let covered =
    Util.sum (List.map (fun r -> Span.covered_frac r phase_a *. Span.dur r) a.roots)
  in
  let rows =
    hw
    @ [
        ("kernel.build_us", mean_of ~probe:"probe.kernel" "kernel.build" 1e6);
        ("kernel.execute_ms", mean_or_fail "kernel.execute" kexec *. 1e3);
        ("kernel.step_ns", Util.sum kexec /. float_of_int (max 1 kernel_counts.Layers.steps) *. 1e9);
        ("kernel.steps", float_of_int kernel_counts.Layers.steps);
        ("kernel.sim_cycles", float_of_int kernel_counts.Layers.cycles);
        ("secmodel.sweep_ms", mean_of ~probe:"probe.secmodel" "secmodel.sweep" 1e3);
        ("secmodel.lo_view_us", lo_view_us);
        ("secmodel.compare_us", mean_of ~probe:"probe.secmodel" "secmodel.compare" 1e6);
        ("secmodel.collect_ms", collect_ms);
        ("secmodel.exhaustive_ms", exhaustive_ms);
        ("secmodel.boundaries", float_of_int sweep_counts.Layers.boundaries);
        ("secmodel.executions", float_of_int sweep_counts.Layers.executions);
      ]
    @ channel
    @ [
        ("fuzz.generate_us", mean_of ~probe:"probe.fuzz" "fuzz.generate" 1e6);
        ("fuzz.check_nonint_ms", mean_of ~probe:"probe.fuzz" "fuzz.check_nonint" 1e3);
        ("fuzz.check_nonint_trials", count_of ~probe:"probe.fuzz" "fuzz.check_nonint");
        ("fuzz.check_capacity_ms", mean_of ~probe:"probe.fuzz" "fuzz.check_capacity" 1e3);
        ("fuzz.check_capacity_trials", count_of ~probe:"probe.fuzz" "fuzz.check_capacity");
        ("fuzz.check_legacy_ms", mean_of ~probe:"probe.fuzz" "fuzz.check_legacy" 1e3);
        ("fuzz.check_legacy_trials", count_of ~probe:"probe.fuzz" "fuzz.check_legacy");
        ("fuzz.check_topology_p50_ms", Util.percentile topo_checks 50.);
        ("fuzz.check_topology_p99_ms", Util.percentile topo_checks 99.);
        ("fuzz.check_topology_trials", float_of_int (List.length topo_checks));
        ("fuzz.mutant_kill_trials", kill fuzz_kill);
        ("topo.mutant_kill_trials", kill topo_kill);
      ]
    @ List.map
        (fun id -> ("core.table_s." ^ id, self_of ~probe:"probe.core" ("core.table." ^ id)))
        Names.tables
    @ List.map
        (fun (p, _) -> ("core.prove_s." ^ p, self_of ~probe:"probe.core" ("core.prove." ^ p)))
        Layers.proof_presets
    @ [
        ("engine.speedup", a.seq_s /. a.untraced_s);
        ("engine.parallel_efficiency", a.tally.busy /. a.tally.capacity);
        ("engine.steals", float_of_int a.tally.steals);
        ("engine.tasks_executed", float_of_int a.tally.executed);
        ("engine.tasks_injected", float_of_int a.tally.injected);
        ("engine.gc_minor", float_of_int a.tally.minor);
        ("engine.gc_major", float_of_int a.tally.major);
        ("engine.gc_promoted_mb", a.tally.promoted_words *. float_of_int (Sys.word_size / 8) /. 1048576.);
      ]
    @ engine_probe @ serve_probe @ daemon_rows
    @ [
        ("unattributed_frac", 1. -. (covered /. traced_s));
        ("trace_overhead_frac", (traced_s /. a.untraced_s) -. 1.);
      ]
    @ List.map (fun l -> ("layer." ^ l ^ ".self_s", layer_self l)) Names.layers
  in
  let counts_ok = same_counts ctx rows in
  let kills_ok = fuzz_kill <> None && topo_kill <> None in
  let failed =
    a.failed + daemon_failed + fuzz_failed + topo_failed + core_failed
    + (if kills_ok then 0 else 1)
    + if execute_ok then 0 else 1
  in
  Span.write_chrome
    (Filename.concat ctx.dir
       (Printf.sprintf "trace-%s-seed%d%s.json" ctx.workload ctx.seed (if ctx.smoke then "-smoke" else "")))
    ~workload:ctx.workload;
  { correct = failed = 0 && counts_ok; attempted = a.attempted; failed; rows }
