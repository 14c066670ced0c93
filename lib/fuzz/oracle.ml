open Tpro_hw
open Tpro_kernel
open Tpro_secmodel
open Tpro_channel
module Presets = Time_protection.Presets

type verdict = Pass | Fail of string

let failf fmt = Format.kasprintf (fun m -> Fail m) fmt

let pair_failf ~vary ~obs fmt =
  Format.kasprintf
    (fun m -> Fail (Printf.sprintf "pair (hi=%d, lo=%d): %s" vary obs m))
    fmt

(* A crash on a generated scenario or topology is a finding: the
   verdict names it instead of aborting the campaign. *)
let guarded f =
  try f () with
  | Kernel.Uncovered_flushable name ->
    failf "kernel flush-coverage audit: uncovered flushable resource %s" name
  | e -> failf "exception during trial: %s" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Lemma attribution, shared by the scenario and topology oracles.

   A violation is reported against the *named lemma* of the composed
   theorem that it refutes ([flush:<resource>], [partition:llc],
   [kernel:padded-switch], [kernel:user-step], [kernel:trap],
   [kernel:noninterference]). *)

(* A per-resource view component: it names its own lemma. *)
let resource_component c =
  String.starts_with ~prefix:"flush:" c
  || String.starts_with ~prefix:"partition:" c

let lemma_of_component c =
  if resource_component c then c
  else if c = "kernel:clock" then "kernel:padded-switch"
  else (* lo-threads / lo-observations / lo-progress *)
    "kernel:noninterference"

(* The component to blame for a sweep divergence: among everything that
   diverged at the *first* diverging Lo boundary, prefer the most causally
   specific — a per-resource slice, then the clock, then the generic
   Lo-trace components.  A timed observation recorded at the very boundary
   where a resource slice (or the clock) first diverged is a symptom of
   that divergence, and blaming it would hide the lemma that broke. *)
let blame_sweep (sw : Unwinding.sweep) =
  match Unwinding.sweep_divergence sw with
  | None -> None
  | Some first ->
    let at_first =
      List.filter
        (fun (_, step) -> step = first.Unwinding.lo_step)
        sw.Unwinding.diverged
    in
    let pick p = List.find_opt (fun (c, _) -> p c) at_first in
    let component =
      match pick resource_component with
      | Some (c, _) -> c
      | None -> (
        match pick (fun c -> c = "kernel:clock") with
        | Some (c, _) -> c
        | None -> first.Unwinding.component)
    in
    Some { first with Unwinding.component }

(* The verdict on a diverged sweep: the lemma its blamed component
   refutes, the secrets, and where Lo's view first differed.  A topology
   failure names its (varied, observer) pair. *)
let sweep_failure ?pair ~secrets:(sa, sb) sw =
  Option.map
    (fun d ->
      let lemma = lemma_of_component d.Unwinding.component in
      match pair with
      | None ->
        failf
          "lemma %s refuted (secrets %d vs %d): Lo's view component %s \
           differs at Lo step %d"
          lemma sa sb d.Unwinding.component d.Unwinding.lo_step
      | Some (vary, obs) ->
        pair_failf ~vary ~obs
          "lemma %s refuted (secrets %d vs %d): view component %s differs \
           at step %d"
          lemma sa sb d.Unwinding.component d.Unwinding.lo_step)
    (blame_sweep sw)

(* The kernel lemma an insecure trace comparison refutes. *)
let lemma_of_report = function
  | { Nonint.user_costs = Some _; _ } -> "kernel:user-step"
  | { Nonint.trap_costs = Some _; _ } -> "kernel:trap"
  | _ -> "kernel:noninterference"

(* Every core's flushable resources and their digests after a final
   core-local flush, in registry order.  A core's flush resets only its
   own resources (an SMT pair's shared ones twice, idempotently), so
   flushing core by core is the same as flushing all cores first.
   Mutates (flushes) the machine — take it after every other digest. *)
let flushed_digests m =
  Array.init (Machine.n_cores m) (fun core ->
      let (_ : int) = Machine.flush_core_local m ~core in
      List.filter_map
        (fun r ->
          if Resource.flushable r then Some (Resource.name r, Resource.digest r)
          else None)
        (Machine.core_resources m ~core))

(* Post-run flushable audit across two runs, all cores: after a final
   core-local flush, every flushable resource's digest must be
   secret-independent (flushing really erased Hi's footprint — raw final
   digests are legitimately secret-dependent, Hi owns them).  Per
   resource, since Hi may have run on a core the Lo-view sweep never
   looks at.  The first differing core, then resource, is blamed. *)
let flush_audit ?vary fa fb =
  let rec from core =
    if core >= Array.length fa then Pass
    else
      match
        List.find_opt
          (fun ((_, da), (_, db)) -> da <> db)
          (List.combine fa.(core) fb.(core))
      with
      | Some ((name, _), _) ->
        failf
          "lemma flush:%s refuted%s: core %d: %s digest differs across \
           secrets after a final flush (un-reset flushable state)"
          name
          (match vary with
          | None -> ""
          | Some v -> Printf.sprintf " (vary domain %d)" v)
          core name
      | None -> from (core + 1)
  in
  from 0

let lo_llc_digest m (lo : Domain.t) =
  Cache.digest_colours (Machine.llc m) ~page_bits:(Machine.page_bits m)
    ~colours:lo.Domain.colours ~seed:1L

(* ------------------------------------------------------------------ *)
(* Noninterference oracle.

   Two runs differing only in the Hi secret, under the full defence
   config, checked by an unwinding sweep: the second run's Lo view is
   compared with the first's recorded one at every Lo boundary.  Beyond
   the sweep we check two machine-level invariants the defences are
   supposed to establish: the final flushable audit, attributed to each
   resource's [flush:] lemma; and that the digest of exactly the LLC
   sets belonging to Lo's page colours is secret-independent
   (partitioning really confined Hi — the whole LLC digest is
   legitimately secret-dependent in Hi's own colours), attributed to
   [partition:llc]. *)

let check_nonint s =
  let sa = s.Scenario.secret_a and sb = s.Scenario.secret_b in
  let sw =
    Unwinding.sweep_pair ~max_kernel_steps:Scenario.max_steps
      ~build:(fun ~secret -> Scenario.build_ni s ~secret)
      ~secret1:sa ~secret2:sb ()
  in
  match sweep_failure ~secrets:(sa, sb) sw with
  | Some fail -> fail
  | None ->
    let ka = sw.Unwinding.run_a.Nonint.kernel
    and kb = sw.Unwinding.run_b.Nonint.kernel in
    let rep = Nonint.compare_runs sw.Unwinding.run_a sw.Unwinding.run_b in
    let cfg = Kernel.config ka in
    if not (Nonint.secure rep) then
      failf "lemma %s refuted (secrets %d vs %d): %a" (lemma_of_report rep) sa
        sb Nonint.pp_report rep
    else
      let flushed =
        if cfg.Kernel.flush_on_switch then
          flush_audit
            (flushed_digests (Kernel.machine ka))
            (flushed_digests (Kernel.machine kb))
        else Pass
      in
      if flushed <> Pass then flushed
      else if
        cfg.Kernel.colouring
        && lo_llc_digest (Kernel.machine ka) (Kernel.domain ka 1)
           <> lo_llc_digest (Kernel.machine kb) (Kernel.domain kb 1)
      then
        failf
          "lemma partition:llc refuted: LLC digest over Lo's colours differs \
           across secrets (partition breached)"
      else Pass

(* ------------------------------------------------------------------ *)
(* Legacy-equivalence oracle.

   A machine driven through a random trace on core 0 is audited resource
   by resource — every cached digest on core 0 and in the shared state
   must equal its from-scratch fold — once after the trace and again
   after a core-local flush.  The flush must report every flushable
   resource, bill what the fold predicts (base, one write-back per dirty
   L1D/L2 line, jitter over the pre-flush private state) and leave the
   private state equal to a fresh machine's. *)

let run_trace m ~core ~seed ~steps =
  let rng = Rng.create seed in
  let span = 0x40000 in
  for _ = 1 to steps do
    match Rng.int rng 5 with
    | 0 | 1 ->
      ignore
        (Machine.touch_paddr m ~core ~owner:(Rng.int rng 2) ~write:false
           (Rng.int rng span))
    | 2 ->
      ignore
        (Machine.touch_paddr m ~core ~owner:(Rng.int rng 2) ~write:true
           (Rng.int rng span))
    | 3 -> ignore (Machine.fetch_paddr m ~core ~owner:0 (Rng.int rng span))
    | _ ->
      ignore
        (Machine.branch m ~core ~pc:(Rng.int rng 256 * 4) ~taken:(Rng.bool rng))
  done

let audit_digests m =
  match
    List.find_map Resource.audit
      (Machine.core_resources m ~core:0 @ Machine.shared_resources m)
  with
  | None -> Pass
  | Some { Resource.resource; cached; fold } ->
    failf
      "incremental digest of %s diverged from its from-scratch fold (cached \
       %Ld, fold %Ld)"
      resource cached fold

let check_legacy s =
  let mc = Scenario.machine_config s in
  let m = Machine.create mc in
  run_trace m ~core:0 ~seed:s.Scenario.hi_seed ~steps:s.Scenario.trace_steps;
  match audit_digests m with
  | Fail _ as fail -> fail
  | Pass ->
    let l = Machine.lat m in
    let dirty =
      Cache.dirty_count (Machine.l1d m ~core:0)
      + (match Machine.l2 m ~core:0 with Some c -> Cache.dirty_count c | None -> 0)
    in
    let expect =
      l.Latency.flush_base + (dirty * l.Latency.dirty_wb)
      + Latency.jitter l (Machine.digest_core_fold m ~core:0)
    in
    let cost, reports = Machine.flush_core_local_report m ~core:0 in
    let uncovered =
      List.filter_map
        (fun r ->
          if
            Resource.flushable r
            && not (List.mem_assoc (Resource.name r) reports)
          then Some (Resource.name r)
          else None)
        (Machine.core_resources m ~core:0)
    in
    if uncovered <> [] then
      failf "flush report omits flushable resource(s): %s"
        (String.concat ", " uncovered)
    else if cost <> expect then
      failf "flush cost %d differs from straight-line cost %d" cost expect
    else
      match audit_digests m with
      | Fail _ as fail -> fail
      | Pass ->
        let fresh = Machine.create { mc with Machine.fault = None } in
        if Machine.digest_core m ~core:0 <> Machine.digest_core fresh ~core:0
        then failf "post-flush private state differs from a fresh machine"
        else Pass

(* ------------------------------------------------------------------ *)
(* Capacity oracle.

   A catalogued channel (all of which full time protection claims to
   close) must measure 0 bits under [full] for any latency seed; the
   known-leaky ones must measure strictly more under [none].            *)

let check_capacity s =
  let n = List.length Catalog.all in
  let e = List.nth Catalog.all (s.Scenario.channel mod n) in
  let scen = e.Catalog.scenario () in
  let seeds = [ s.Scenario.cap_seed ] in
  let o_full = Attack.measure ~seeds scen ~cfg:Presets.full () in
  if o_full.Attack.capacity_bits > 1e-9 then
    failf "channel %s: %.3f bits under full time protection (seed %d)"
      e.Catalog.cname o_full.Attack.capacity_bits s.Scenario.cap_seed
  else if e.Catalog.leaky then begin
    let o_none = Attack.measure ~seeds scen ~cfg:Presets.none () in
    if o_none.Attack.capacity_bits <= 1e-9 then
      failf
        "channel %s: measured 0 bits under no protection (seed %d) — the \
         oracle's known-leaky baseline is broken"
        e.Catalog.cname s.Scenario.cap_seed
    else Pass
  end
  else Pass

let check (s : Scenario.t) =
  guarded @@ fun () ->
  match s.Scenario.oracle with
  | Scenario.Nonint -> check_nonint s
  | Scenario.Legacy -> check_legacy s
  | Scenario.Capacity -> check_capacity s

(* ------------------------------------------------------------------ *)
(* Topology oracle.

   One generated N-domain/M-core system, checked pairwise: every
   ordered (varied, observer) domain pair must satisfy noninterference.
   The workhorse trick is baseline sharing — [Topology.build t ~vary:v
   ~secret:t.secret_a] is the same global system for every [v] — so the
   whole check costs at most N+3 executions, not N·(N−1)·2:

   - one deep unwinding sweep on the topology's focus pair (Lo-view
     comparison at every boundary, lemma-attributed), whose baseline
     run is reused as *the* baseline;
   - one varied execution per remaining domain;
   - up to two extra executions for the capacity probe.

   Each run is summarised as soon as it ends, so the sweep's second
   machine can be reset to boot every later run: a check creates two
   machines.  Non-focus pairs are checked from the summaries
   (observation and cost traces of the observer domain's threads, plus
   its LLC-colour digest); only a divergent pair is re-swept to name the
   lemma it refutes.  Failure messages name the pair: "pair (hi=v,
   lo=o): lemma L refuted ...". *)

(* What the oracle keeps of one finished run: every domain's threads
   (their traces outlive the machine), every domain's LLC-colour digest
   under colouring, and every core's flushed digests under
   flush_on_switch. *)
type summary = {
  threads : Thread.t list array;
  llc : int64 array;
  flushed : (string * int64) list array;
}

let summarise (run : Nonint.run) =
  let k = run.Nonint.kernel in
  let m = Kernel.machine k and cfg = Kernel.config k in
  let doms = Array.of_list (Kernel.domains k) in
  let llc =
    if cfg.Kernel.colouring then Array.map (lo_llc_digest m) doms else [||]
  in
  let flushed =
    if cfg.Kernel.flush_on_switch then flushed_digests m else [||]
  in
  { threads = Array.map Domain.threads doms; llc; flushed }

(* One (varied, observer) pair from two summaries; on divergence,
   re-sweep the pair in isolation to name the refuted lemma. *)
let check_topology_pair_summaries (t : Topology.t) ~vary ~obs base s_v =
  let rep = Nonint.compare_threads base.threads.(obs) s_v.threads.(obs) in
  let partition_breached =
    (Topology.kernel_config t).Kernel.colouring
    && base.llc.(obs) <> s_v.llc.(obs)
  in
  if Nonint.secure rep && not partition_breached then Pass
  else
    let sw =
      Unwinding.sweep_pair
        ~max_kernel_steps:(Topology.max_steps t)
        ~lo_dom:obs
        ~build:(Topology.build t ~vary)
        ~secret1:t.Topology.secret_a ~secret2:t.Topology.secret_b ()
    in
    match
      sweep_failure ~pair:(vary, obs)
        ~secrets:(t.Topology.secret_a, t.Topology.secret_b)
        sw
    with
    | Some fail -> fail
    | None ->
      if partition_breached then
        pair_failf ~vary ~obs
          "lemma partition:llc refuted: LLC digest over domain %d's \
           colours differs across secrets (partition breached)"
          obs
      else
        pair_failf ~vary ~obs "lemma %s refuted: %a" (lemma_of_report rep)
          Nonint.pp_report rep

(* Re-execute the pair from scratch (two fresh runs): the entry point
   for targeted pair checks in tests and replay diagnostics. *)
let check_topology_pair (t : Topology.t) ~vary ~obs =
  let run secret =
    summarise
      (Nonint.execute
         ~max_steps:(Topology.max_steps t)
         (fun ~secret -> Topology.build t ~vary ~secret)
         secret)
  in
  let base = run t.Topology.secret_a in
  check_topology_pair_summaries t ~vary ~obs base (run t.Topology.secret_b)

(* Capacity probe: the per-topology end-to-end leakage bound.  Samples
   map the varied domain's secret to a digest of the observer domain's
   complete observation trace; under full protection the distribution
   must carry 0 bits. *)
let obs_symbol ths =
  let s =
    Format.asprintf "%a"
      (Format.pp_print_list Observation.pp)
      (Observation.of_threads ths)
  in
  Int64.to_int
    (String.fold_left (fun acc c -> Rng.chain_int acc (Char.code c)) 7L s)
  land max_int

let check_topology (t : Topology.t) =
  guarded @@ fun () ->
  let n = Topology.n_domains t in
  let fv = t.Topology.deep_hi and fo = t.Topology.deep_lo in
  let sa = t.Topology.secret_a and sb = t.Topology.secret_b in
  let ms = Topology.max_steps t in
  let sw =
    Unwinding.sweep_pair ~max_kernel_steps:ms ~lo_dom:fo
      ~build:(Topology.build t ~vary:fv)
      ~secret1:sa ~secret2:sb ()
  in
  match sweep_failure ~pair:(fv, fo) ~secrets:(sa, sb) sw with
  | Some fail -> fail
  | None ->
    let base = summarise sw.Unwinding.run_a in
    let varied = Array.make n (summarise sw.Unwinding.run_b) in
    let machine = Kernel.machine sw.Unwinding.run_b.Nonint.kernel in
    let execute ~vary secret =
      Nonint.execute ~max_steps:ms
        (fun ~secret -> Topology.build ~machine t ~vary ~secret)
        secret
    in
    for v = 0 to n - 1 do
      if v <> fv then varied.(v) <- summarise (execute ~vary:v sb)
    done;
    let verdict = ref Pass in
    List.iter
      (fun (v, o) ->
        if !verdict = Pass then
          verdict :=
            check_topology_pair_summaries t ~vary:v ~obs:o base varied.(v))
      (Topology.pairs t);
    if !verdict = Pass && (Topology.kernel_config t).Kernel.flush_on_switch
    then
      for v = 0 to n - 1 do
        if !verdict = Pass then
          verdict := flush_audit ~vary:v base.flushed varied.(v).flushed
      done;
    (* Capacity probe over four secrets of [cap_dom]: the baseline and
       the cap domain's varied run give the first two, and a probe
       secret equal to [secret_b] reuses that run too. *)
    if !verdict = Pass then begin
      let c = t.Topology.cap_dom and o = t.Topology.cap_obs in
      let symbol s =
        if s = sb then obs_symbol varied.(c).threads.(o)
        else
          obs_symbol
            (Domain.threads (Kernel.domain (execute ~vary:c s).Nonint.kernel o))
      in
      let s3 = (sa + 3) mod 8 and s4 = (sa + 5) mod 8 in
      let samples =
        [
          (sa, obs_symbol base.threads.(o));
          (sb, symbol sb);
          (s3, symbol s3);
          (s4, symbol s4);
        ]
      in
      let bits = Capacity.of_samples samples in
      if bits > 1e-9 then
        verdict :=
          pair_failf ~vary:c ~obs:o
            "capacity %.3f bits under full time protection (observation \
             digest depends on the secret)"
            bits
    end;
    !verdict
