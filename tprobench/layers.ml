(* The traced decompositions: the same work the public entry points do,
   expressed as the benchmark's own calls into each layer's public
   functions, each wrapped in a span.

   [fuzz_trial] mirrors [Oracle.check] and [topo_trial] mirrors
   [Oracle.check_topology]: same builds, sweeps, executions, comparisons
   and audits, in the same order, so their verdicts agree with the
   oracles'.  [execute] mirrors [Nonint.execute] but steps the kernel
   itself so it can count steps.

   The rows these produce time the copies, not the originals: a change
   inside [Oracle] or [Nonint.execute] must be carried over here in the
   same change, or the rows stop tracking it.  Two checks catch a copy
   that drifts: the checks must reject the trial the real oracle killed
   each mutant on ([Workloads.copy_rejects]), and [execute] must match
   [Nonint.execute] on one input ([execute_matches]). *)

open Tpro_hw
open Tpro_kernel
open Tpro_secmodel
open Tpro_channel
open Tpro_fuzz
module Supervisor = Tpro_engine.Supervisor
module Presets = Time_protection.Presets

let span = Span.with_

(* Simulated-work counters, shared by all domains. *)
type counts = { steps : int; cycles : int; boundaries : int; executions : int }

let c_steps = Atomic.make 0
let c_cycles = Atomic.make 0
let c_boundaries = Atomic.make 0
let c_executions = Atomic.make 0

let snapshot () =
  {
    steps = Atomic.get c_steps;
    cycles = Atomic.get c_cycles;
    boundaries = Atomic.get c_boundaries;
    executions = Atomic.get c_executions;
  }

(* [f ()] and the counts it added. *)
let counting f =
  let a = snapshot () in
  let r = f () in
  let b = snapshot () in
  ( r,
    {
      steps = b.steps - a.steps;
      cycles = b.cycles - a.cycles;
      boundaries = b.boundaries - a.boundaries;
      executions = b.executions - a.executions;
    } )

let add c n = ignore (Atomic.fetch_and_add c n)

let sim_cycles (run : Nonint.run) =
  let m = Kernel.machine run.Nonint.kernel in
  let total = ref 0 in
  for core = 0 to Machine.n_cores m - 1 do
    total := !total + Machine.now m ~core
  done;
  !total

let executed run =
  add c_executions 1;
  add c_cycles (sim_cycles run)

let execute ~max_steps build secret =
  let run = span "kernel.build" (fun () -> build ~secret) in
  List.iter (fun th -> Thread.set_traced th true) run.Nonint.observers;
  let steps =
    span "kernel.execute" (fun () ->
        let rec go k = if k < max_steps && Kernel.step run.Nonint.kernel then go (k + 1) else k in
        go 0)
  in
  add c_steps steps;
  executed run;
  run

(* [execute] must do what [Nonint.execute] does: on the same input both
   end at the same simulated cycles with the same observer traces. *)
let execute_matches ~max_steps build secret =
  let a = Nonint.execute ~max_steps build secret in
  let b = execute ~max_steps build secret in
  sim_cycles a = sim_cycles b && Nonint.secure (Nonint.compare_runs a b)

let sweep ~max_kernel_steps ?lo_dom ~build ~secret1 ~secret2 () =
  let build ~secret = span "kernel.build" (fun () -> build ~secret) in
  let sw =
    span "secmodel.sweep" (fun () ->
        Unwinding.sweep_pair ~max_kernel_steps ?lo_dom ~build ~secret1 ~secret2 ())
  in
  add c_boundaries sw.Unwinding.boundaries;
  executed sw.Unwinding.run_a;
  executed sw.Unwinding.run_b;
  sw

let compare a b = span "secmodel.compare" (fun () -> Nonint.compare_runs a b)

(* After a final core-local flush, every flushable resource must digest
   the same in both machines. *)
let flush_audit ma mb =
  span "hw.flush_audit" (fun () ->
      let ok = ref true in
      for core = 0 to Machine.n_cores ma - 1 do
        ignore (Machine.flush_core_local ma ~core : int);
        ignore (Machine.flush_core_local mb ~core : int);
        List.iter2
          (fun a b ->
            if Resource.flushable a && Resource.digest a <> Resource.digest b then ok := false)
          (Machine.core_resources ma ~core)
          (Machine.core_resources mb ~core)
      done;
      !ok)

let same_llc_slice ka kb dom =
  span "hw.llc_digest" (fun () ->
      (not (Kernel.config ka).Kernel.colouring)
      || Oracle.lo_llc_digest (Kernel.machine ka) (Kernel.domain ka dom)
         = Oracle.lo_llc_digest (Kernel.machine kb) (Kernel.domain kb dom))

let guarded f = try f () with _ -> false

(* ------------------------------------------------------------------ *)
(* fuzz: one scenario trial *)

let check_nonint (s : Scenario.t) =
  let sw =
    sweep ~max_kernel_steps:Scenario.max_steps
      ~build:(fun ~secret -> Scenario.build_ni s ~secret)
      ~secret1:s.Scenario.secret_a ~secret2:s.Scenario.secret_b ()
  in
  Unwinding.sweep_divergence sw = None
  &&
  let ra = sw.Unwinding.run_a and rb = sw.Unwinding.run_b in
  Nonint.secure (compare ra rb)
  &&
  let ka = ra.Nonint.kernel and kb = rb.Nonint.kernel in
  ((not (Kernel.config ka).Kernel.flush_on_switch)
  || flush_audit (Kernel.machine ka) (Kernel.machine kb))
  && same_llc_slice ka kb 1

let check_capacity (s : Scenario.t) =
  let e = List.nth Catalog.all (s.Scenario.channel mod List.length Catalog.all) in
  let scen = e.Catalog.scenario () in
  let seeds = [ s.Scenario.cap_seed ] in
  let bits cfg =
    span "channel.measure" (fun () -> (Attack.measure ~seeds scen ~cfg ()).Attack.capacity_bits)
  in
  bits Presets.full <= 1e-9 && ((not e.Catalog.leaky) || bits Presets.none > 1e-9)

let fuzz_trial ~seed idx =
  let s = span "fuzz.generate" (fun () -> Scenario.generate ~seed idx) in
  match s.Scenario.oracle with
  | Scenario.Nonint -> span "fuzz.check_nonint" (fun () -> guarded (fun () -> check_nonint s))
  | Scenario.Capacity ->
    span "fuzz.check_capacity" (fun () -> guarded (fun () -> check_capacity s))
  | Scenario.Legacy ->
    span "fuzz.check_legacy" (fun () -> guarded (fun () -> Oracle.check_legacy s = Oracle.Pass))

(* ------------------------------------------------------------------ *)
(* topo: one topology, every ordered domain pair *)

let obs_symbol (run : Nonint.run) ~obs =
  let ths = Domain.threads (Kernel.domain run.Nonint.kernel obs) in
  let s =
    Format.asprintf "%a" (Format.pp_print_list Observation.pp) (Observation.of_threads ths)
  in
  Int64.to_int (String.fold_left (fun acc c -> Rng.chain_int acc (Char.code c)) 7L s)
  land max_int

let check_topology (t : Topology.t) =
  let n = Topology.n_domains t in
  let fv = t.Topology.deep_hi and fo = t.Topology.deep_lo in
  let max_steps = Topology.max_steps t in
  let build v ~secret = Topology.build t ~vary:v ~secret in
  let sw =
    sweep ~max_kernel_steps:max_steps ~lo_dom:fo ~build:(build fv)
      ~secret1:t.Topology.secret_a ~secret2:t.Topology.secret_b ()
  in
  Unwinding.sweep_divergence sw = None
  &&
  let base = sw.Unwinding.run_a in
  let runs =
    Array.init n (fun v ->
        if v = fv then sw.Unwinding.run_b
        else execute ~max_steps (build v) t.Topology.secret_b)
  in
  List.for_all
    (fun (v, o) ->
      Nonint.secure (compare (Nonint.view_from base ~dom:o) (Nonint.view_from runs.(v) ~dom:o))
      && same_llc_slice base.Nonint.kernel runs.(v).Nonint.kernel o)
    (Topology.pairs t)
  && ((not (Topology.kernel_config t).Kernel.flush_on_switch)
     || List.for_all
          (fun v ->
            flush_audit (Kernel.machine base.Nonint.kernel)
              (Kernel.machine runs.(v).Nonint.kernel))
          (List.init n Fun.id))
  &&
  let c = t.Topology.cap_dom and o = t.Topology.cap_obs in
  let extra s = execute ~max_steps (build c) s in
  let s3 = (t.Topology.secret_a + 3) mod 8 and s4 = (t.Topology.secret_a + 5) mod 8 in
  let samples =
    [
      (t.Topology.secret_a, obs_symbol base ~obs:o);
      (t.Topology.secret_b, obs_symbol runs.(c) ~obs:o);
      (s3, obs_symbol (extra s3) ~obs:o);
      (s4, obs_symbol (extra s4) ~obs:o);
    ]
  in
  span "channel.capacity" (fun () -> Capacity.of_samples samples) <= 1e-9

let topo_trial ~seed idx =
  let t = span "fuzz.generate" (fun () -> Topology.generate ~seed idx) in
  span "fuzz.check_topology" (fun () -> guarded (fun () -> check_topology t))

(* ------------------------------------------------------------------ *)
(* Fan-out through the supervisor, one [engine.task] span per task, in
   groups of [group] items per [Supervisor.run] call, as the campaign
   loops go between checkpoints (fuzz 200, topo 50). *)

let fan sup ~label ?(group = max_int) f items =
  let parent = Span.current_id () in
  let run idxs =
    List.map
      (function Ok ok -> ok | Error _ -> false)
      (Supervisor.run sup ~label ~key:Fun.id
         (fun ~fuel:_ i -> Span.under parent (fun () -> span "engine.task" (fun () -> f i)))
         idxs)
  in
  let rec go acc = function
    | [] -> List.concat (List.rev acc)
    | l -> go (run (List.filteri (fun i _ -> i < group) l) :: acc) (List.filteri (fun i _ -> i >= group) l)
  in
  go [] items

let fuzz_group = 200
let topo_group = 50

(* ------------------------------------------------------------------ *)
(* repro: every table, then the composed theorem per preset *)

let tables sup ?seeds () =
  let pool = Supervisor.pool sup in
  let parent = Span.current_id () in
  let run id =
    match Time_protection.Experiments.by_id id with
    | Some f ->
      Span.under parent (fun () ->
          span "engine.task" (fun () -> span ("core.table." ^ id) (fun () -> f ?seeds ?pool ())))
    | None -> failwith ("unknown experiment " ^ id)
  in
  match pool with
  | Some p -> Tpro_engine.Pool.map p run Time_protection.Experiments.ids
  | None -> List.map run Time_protection.Experiments.ids

let proof_presets = [ ("full", Presets.full); ("none", Presets.none) ]
let acknowledge = [ "memory interconnect" ]

let prove sup ?seeds () =
  List.map
    (fun (name, cfg) ->
      span ("core.prove." ^ name) (fun () ->
          Time_protection.Prove.run ~sup ~acknowledge ?seeds ~presets:[ (name, cfg) ] ()))
    proof_presets
