open Tpro_hw
open Tpro_kernel
open Tpro_secmodel
open Tpro_channel
module Presets = Time_protection.Presets

type verdict = Pass | Fail of string

let failf fmt = Format.kasprintf (fun m -> Fail m) fmt

(* ------------------------------------------------------------------ *)
(* Noninterference oracle.

   Two runs differing only in the Hi secret, under the full defence
   config, advanced in lockstep through an unwinding sweep: Lo's entire
   view of the state is compared at every Lo boundary, so a violation is
   reported against the *named lemma* of the composed theorem that it
   refutes ([flush:<resource>], [partition:llc], [kernel:padded-switch],
   [kernel:user-step], [kernel:trap], [kernel:noninterference]).  Beyond
   the sweep we check two machine-level invariants the defences are
   supposed to establish — per resource, since Hi may have run on a core
   the Lo-view sweep never looks at:

   - after a final core-local flush, every flushable resource's digest
     on every core is secret-independent (flushing really erased Hi's
     footprint — raw final digests are legitimately secret-dependent, Hi
     owns them), attributed to that resource's [flush:] lemma;
   - the digest of exactly the LLC sets belonging to Lo's page colours
     is secret-independent (partitioning really confined Hi — the whole
     LLC digest is legitimately secret-dependent in Hi's own colours),
     attributed to [partition:llc]. *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let lemma_of_component c =
  if has_prefix "flush:" c || has_prefix "partition:" c then c
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
      match pick (fun c -> has_prefix "flush:" c || has_prefix "partition:" c)
      with
      | Some (c, _) -> c
      | None -> (
        match pick (fun c -> c = "kernel:clock") with
        | Some (c, _) -> c
        | None -> first.Unwinding.component)
    in
    Some { first with Unwinding.component }

let lo_llc_digest m (lo : Domain.t) =
  Cache.digest_colours (Machine.llc m) ~page_bits:(Machine.page_bits m)
    ~colours:lo.Domain.colours ~seed:1L

let check_nonint s =
  let build ~secret = Scenario.build_ni s ~secret in
  let sw =
    Unwinding.sweep_pair ~max_kernel_steps:Scenario.max_steps ~build
      ~secret1:s.Scenario.secret_a ~secret2:s.Scenario.secret_b ()
  in
  match blame_sweep sw with
  | Some d ->
    failf "lemma %s refuted (secrets %d vs %d): Lo's view component %s \
           differs at Lo step %d"
      (lemma_of_component d.Unwinding.component)
      s.Scenario.secret_a s.Scenario.secret_b d.Unwinding.component
      d.Unwinding.lo_step
  | None ->
    let ra = sw.Unwinding.run_a and rb = sw.Unwinding.run_b in
    let rep = Nonint.compare_runs ra rb in
    if not (Nonint.secure rep) then
      let lemma =
        match rep with
        | { Nonint.user_costs = Some _; _ } -> "kernel:user-step"
        | { Nonint.trap_costs = Some _; _ } -> "kernel:trap"
        | _ -> "kernel:noninterference"
      in
      failf "lemma %s refuted (secrets %d vs %d): %a" lemma
        s.Scenario.secret_a s.Scenario.secret_b Nonint.pp_report rep
    else begin
      let ka = ra.Nonint.kernel and kb = rb.Nonint.kernel in
      let ma = Kernel.machine ka and mb = Kernel.machine kb in
      let cfg = Kernel.config ka in
      let fail = ref Pass in
      (if cfg.Kernel.flush_on_switch then
         for core = 0 to Machine.n_cores ma - 1 do
           let (_ : int) = Machine.flush_core_local ma ~core in
           let (_ : int) = Machine.flush_core_local mb ~core in
           if !fail = Pass then
             List.iter2
               (fun res_a res_b ->
                 if
                   !fail = Pass
                   && Resource.flushable res_a
                   && Resource.digest res_a <> Resource.digest res_b
                 then
                   fail :=
                     failf
                       "lemma flush:%s refuted: core %d: %s digest \
                        differs across secrets after a final flush \
                        (un-reset flushable state)"
                       (Resource.name res_a) core (Resource.name res_a))
               (Machine.core_resources ma ~core)
               (Machine.core_resources mb ~core)
         done);
      (if !fail = Pass && cfg.Kernel.colouring then begin
         let lo_a = Kernel.domain ka 1 and lo_b = Kernel.domain kb 1 in
         if lo_llc_digest ma lo_a <> lo_llc_digest mb lo_b then
           fail :=
             failf
               "lemma partition:llc refuted: LLC digest over Lo's \
                colours differs across secrets (partition breached)"
       end);
      !fail
    end

(* ------------------------------------------------------------------ *)
(* Legacy-equivalence oracle.

   Straight-line reimplementations of the registry folds — the per-field
   digest and flush code exactly as it stood before the resource
   registry, extended with the BTB chain — checked against a machine
   driven through a random trace.  The straight-line side uses the
   from-scratch [digest_fold] entry points, so this oracle is also the
   incremental-vs-fold differential check: the registry serves memoised
   digests while the legacy code re-folds the raw state.  Also audits
   flush-report coverage and that the post-flush private state equals a
   fresh machine's. *)

let legacy_digest_core m ~core =
  let l2d =
    match Machine.l2 m ~core with Some l2 -> Cache.digest_fold l2 | None -> 17L
  in
  let pf = Prefetch.digest_fold (Machine.prefetch m ~core) in
  let spec_tail =
    match Machine.btb m ~core with
    | Some b -> Rng.combine pf (Btb.digest_fold b)
    | None -> pf
  in
  Rng.combine
    (Rng.combine
       (Cache.digest_fold (Machine.l1i m ~core))
       (Rng.combine (Cache.digest_fold (Machine.l1d m ~core)) l2d))
    (Rng.combine
       (Tlb.digest_fold (Machine.tlb m ~core))
       (Rng.combine (Bpred.digest_fold (Machine.bpred m ~core)) spec_tail))

let legacy_digest_shared m =
  Rng.combine
    (Cache.digest_fold (Machine.llc m))
    (Interconnect.digest_fold (Machine.bus m))

let legacy_flush_cost m ~core =
  let l = Machine.lat m in
  let pre = legacy_digest_core m ~core in
  let dirty =
    Cache.dirty_count (Machine.l1d m ~core)
    + (match Machine.l2 m ~core with Some c -> Cache.dirty_count c | None -> 0)
  in
  l.Latency.flush_base + (dirty * l.Latency.dirty_wb) + Latency.jitter l pre

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

let check_legacy s =
  (* The whole trial runs with the debug re-fold assertion armed: every
     registry digest read below also recomputes its from-scratch fold
     and raises {!Resource.Digest_divergence} on a missed cache
     invalidation. *)
  Resource.with_digest_debug @@ fun () ->
  let mc = Scenario.machine_config s in
  let m = Machine.create mc in
  run_trace m ~core:0 ~seed:s.Scenario.hi_seed ~steps:s.Scenario.trace_steps;
  if Machine.digest_core m ~core:0 <> legacy_digest_core m ~core:0 then
    failf "digest_core diverges from the straight-line reimplementation"
  else if Machine.digest_shared m <> legacy_digest_shared m then
    failf "digest_shared diverges from the straight-line reimplementation"
  else begin
    let expect = legacy_flush_cost m ~core:0 in
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
    else begin
      let fresh = Machine.create { mc with Machine.fault = None } in
      if Machine.digest_core m ~core:0 <> Machine.digest_core fresh ~core:0
      then failf "post-flush private state differs from a fresh machine"
      else Pass
    end
  end

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

(* ------------------------------------------------------------------ *)
(* Topology oracle.

   One generated N-domain/M-core system, checked pairwise: every
   ordered (varied, observer) domain pair must satisfy noninterference.
   The workhorse trick is baseline sharing — [Topology.build t ~vary:v
   ~secret:t.secret_a] is the same global system for every [v] — so the
   whole check costs N+3 executions, not N·(N−1)·2:

   - one deep unwinding sweep on the topology's focus pair (lockstep
     Lo-view comparison at every boundary, lemma-attributed), whose
     baseline run is reused as *the* baseline;
   - one varied execution per remaining domain;
   - two extra executions for the capacity probe.

   Non-focus pairs are checked from recorded evidence (observation and
   cost traces restricted to the observer domain via [Nonint.view_from],
   plus the observer-coloured LLC digest); only a divergent pair is
   re-swept to name the lemma it refutes.  Failure messages name the
   pair: "pair (hi=v, lo=o): lemma L refuted ...". *)

let pair_failf ~vary ~obs fmt =
  Format.kasprintf
    (fun m -> Fail (Printf.sprintf "pair (hi=%d, lo=%d): %s" vary obs m))
    fmt

(* Post-run flushable audit across two runs' machines, all cores: after
   a final core-local flush, every flushable resource's digest must be
   secret-independent.  Mutates both machines (flushes them) — call
   after every digest-based comparison. *)
let flushables_secret_independent ~vary ma mb =
  let fail = ref Pass in
  for core = 0 to Machine.n_cores ma - 1 do
    let (_ : int) = Machine.flush_core_local ma ~core in
    let (_ : int) = Machine.flush_core_local mb ~core in
    if !fail = Pass then
      List.iter2
        (fun res_a res_b ->
          if
            !fail = Pass
            && Resource.flushable res_a
            && Resource.digest res_a <> Resource.digest res_b
          then
            fail :=
              failf
                "lemma flush:%s refuted (vary domain %d): core %d: %s \
                 digest differs across secrets after a final flush \
                 (un-reset flushable state)"
                (Resource.name res_a) vary core (Resource.name res_a))
        (Machine.core_resources ma ~core)
        (Machine.core_resources mb ~core)
  done;
  !fail

(* One (varied, observer) pair from recorded evidence; on divergence,
   re-sweep the pair in isolation to name the refuted lemma. *)
let check_topology_pair_runs (t : Topology.t) ~vary ~obs r_base r_v =
  let rep =
    Nonint.compare_runs
      (Nonint.view_from r_base ~dom:obs)
      (Nonint.view_from r_v ~dom:obs)
  in
  let ka = r_base.Nonint.kernel and kb = r_v.Nonint.kernel in
  let partition_breached =
    (Kernel.config ka).Kernel.colouring
    && lo_llc_digest (Kernel.machine ka) (Kernel.domain ka obs)
       <> lo_llc_digest (Kernel.machine kb) (Kernel.domain kb obs)
  in
  if Nonint.secure rep && not partition_breached then Pass
  else begin
    let sw =
      Unwinding.sweep_pair
        ~max_kernel_steps:(Topology.max_steps t)
        ~lo_dom:obs
        ~build:(Topology.build t ~vary)
        ~secret1:t.Topology.secret_a ~secret2:t.Topology.secret_b ()
    in
    match blame_sweep sw with
    | Some d ->
      pair_failf ~vary ~obs
        "lemma %s refuted (secrets %d vs %d): view component %s differs \
         at step %d"
        (lemma_of_component d.Unwinding.component)
        t.Topology.secret_a t.Topology.secret_b d.Unwinding.component
        d.Unwinding.lo_step
    | None ->
      if partition_breached then
        pair_failf ~vary ~obs
          "lemma partition:llc refuted: LLC digest over domain %d's \
           colours differs across secrets (partition breached)"
          obs
      else
        let lemma =
          match rep with
          | { Nonint.user_costs = Some _; _ } -> "kernel:user-step"
          | { Nonint.trap_costs = Some _; _ } -> "kernel:trap"
          | _ -> "kernel:noninterference"
        in
        pair_failf ~vary ~obs "lemma %s refuted: %a" lemma Nonint.pp_report
          rep
  end

(* Re-execute the pair from scratch (two fresh runs): the entry point
   for targeted pair checks in tests and replay diagnostics. *)
let check_topology_pair (t : Topology.t) ~vary ~obs =
  let r_base =
    Nonint.execute
      ~max_steps:(Topology.max_steps t)
      (fun ~secret -> Topology.build t ~vary ~secret)
      t.Topology.secret_a
  in
  let r_v =
    Nonint.execute
      ~max_steps:(Topology.max_steps t)
      (fun ~secret -> Topology.build t ~vary ~secret)
      t.Topology.secret_b
  in
  check_topology_pair_runs t ~vary ~obs r_base r_v

(* Capacity probe: the per-topology end-to-end leakage bound.  Samples
   map the varied domain's secret to a digest of the observer domain's
   complete observation trace; under full protection the distribution
   must carry 0 bits. *)
let obs_symbol run ~obs =
  let ths = Domain.threads (Kernel.domain run.Nonint.kernel obs) in
  let s =
    Format.asprintf "%a"
      (Format.pp_print_list Observation.pp)
      (Observation.of_threads ths)
  in
  Int64.to_int
    (String.fold_left (fun acc c -> Rng.chain_int acc (Char.code c)) 7L s)
  land max_int

let check_topology (t : Topology.t) =
  try
    let n = Topology.n_domains t in
    let fv = t.Topology.deep_hi and fo = t.Topology.deep_lo in
    let ms = Topology.max_steps t in
    let sw =
      Unwinding.sweep_pair ~max_kernel_steps:ms ~lo_dom:fo
        ~build:(Topology.build t ~vary:fv)
        ~secret1:t.Topology.secret_a ~secret2:t.Topology.secret_b ()
    in
    match blame_sweep sw with
    | Some d ->
      pair_failf ~vary:fv ~obs:fo
        "lemma %s refuted (secrets %d vs %d): view component %s differs \
         at step %d"
        (lemma_of_component d.Unwinding.component)
        t.Topology.secret_a t.Topology.secret_b d.Unwinding.component
        d.Unwinding.lo_step
    | None ->
      let r_base = sw.Unwinding.run_a in
      let runs = Array.make n sw.Unwinding.run_b in
      for v = 0 to n - 1 do
        if v <> fv then
          runs.(v) <-
            Nonint.execute ~max_steps:ms
              (fun ~secret -> Topology.build t ~vary:v ~secret)
              t.Topology.secret_b
      done;
      let verdict = ref Pass in
      List.iter
        (fun (v, o) ->
          if !verdict = Pass then
            verdict := check_topology_pair_runs t ~vary:v ~obs:o r_base runs.(v))
        (Topology.pairs t);
      (* Machine-level flushable audit last: it flushes the machines, so
         every digest-based comparison above must already be done.  The
         baseline machine is flushed once per varied run — idempotent
         after the first. *)
      if !verdict = Pass && (Topology.kernel_config t).Kernel.flush_on_switch
      then begin
        let ma = Kernel.machine r_base.Nonint.kernel in
        for v = 0 to n - 1 do
          if !verdict = Pass then
            verdict :=
              flushables_secret_independent ~vary:v ma
                (Kernel.machine runs.(v).Nonint.kernel)
        done
      end;
      (* Capacity probe over four secrets of [cap_dom], reusing the
         baseline and the cap domain's varied run for two of them. *)
      if !verdict = Pass then begin
        let c = t.Topology.cap_dom and o = t.Topology.cap_obs in
        let extra s =
          Nonint.execute ~max_steps:ms
            (fun ~secret -> Topology.build t ~vary:c ~secret)
            s
        in
        let s3 = (t.Topology.secret_a + 3) mod 8
        and s4 = (t.Topology.secret_a + 5) mod 8 in
        let samples =
          [
            (t.Topology.secret_a, obs_symbol r_base ~obs:o);
            (t.Topology.secret_b, obs_symbol runs.(c) ~obs:o);
            (s3, obs_symbol (extra s3) ~obs:o);
            (s4, obs_symbol (extra s4) ~obs:o);
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
  with
  | Kernel.Uncovered_flushable name ->
    failf "kernel flush-coverage audit: uncovered flushable resource %s" name
  | Resource.Digest_divergence { resource; cached; fold } ->
    failf
      "incremental digest of %s diverged from its from-scratch fold \
       (cached %Ld, fold %Ld)"
      resource cached fold
  | e -> failf "exception during trial: %s" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)

let check (s : Scenario.t) =
  try
    match s.Scenario.oracle with
    | Scenario.Nonint -> check_nonint s
    | Scenario.Legacy -> check_legacy s
    | Scenario.Capacity -> check_capacity s
  with
  | Kernel.Uncovered_flushable name ->
    failf "kernel flush-coverage audit: uncovered flushable resource %s" name
  | Resource.Digest_divergence { resource; cached; fold } ->
    failf
      "incremental digest of %s diverged from its from-scratch fold \
       (cached %Ld, fold %Ld)"
      resource cached fold
  | e -> failf "exception during trial: %s" (Printexc.to_string e)
