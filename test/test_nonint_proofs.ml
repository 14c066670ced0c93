open Tpro_hw
open Tpro_kernel
open Tpro_secmodel
open Time_protection

(* These are the headline verification regression tests: the proof stack
   must hold under full time protection and find counter-examples when any
   single mechanism is removed.  A reduced sampled universe (2 secrets,
   1 seed) keeps them fast. *)

let secrets = [ 0; 1 ]
let seed = 0

let build ?(seed = seed) cfg ~secret = Ni_scenario.build ~cfg ~seed ~secret

let report cfg =
  Nonint.compare_runs
    (Nonint.execute (build cfg) 0)
    (Nonint.execute (build cfg) 1)

(* Every secret but the first, run once and compared with the first
   secret's run: the comparisons [Theorem.collect] hands the checks. *)
let comparisons ?seed cfg = function
  | [] -> []
  | base :: rest ->
    let first = Nonint.execute (build ?seed cfg) base in
    List.map
      (fun s ->
        (base, s, Nonint.compare_runs first (Nonint.execute (build ?seed cfg) s)))
      rest

let test_full_is_secure () =
  Alcotest.(check bool) "no divergence under full TP" true
    (Nonint.secure (report Presets.full))

let test_none_is_insecure () =
  Alcotest.(check bool) "divergence without TP" false
    (Nonint.secure (report Presets.none))

let test_each_ablation_leaks () =
  (* a knocked-out mechanism may only leak for some secret pairs, so this
     check samples a wider universe than the quick two-run tests *)
  let leaks cfg =
    List.exists
      (fun (_, _, r) -> not (Nonint.secure r))
      (comparisons cfg [ 0; 1; 2; 3 ])
  in
  List.iter
    (fun (name, cfg) ->
      if name <> "full" then
        Alcotest.(check bool) (name ^ " leaks") true (leaks cfg))
    Presets.ablations

let test_case1_full () =
  let c = Proofs.case1_user_steps (comparisons Presets.full secrets) in
  Alcotest.(check bool) "case 1 holds" true c.Proofs.holds

let test_case2a_full () =
  let c = Proofs.case2a_traps (comparisons Presets.full secrets) in
  Alcotest.(check bool) "case 2a holds" true c.Proofs.holds

let test_case2b_full () =
  let run = Nonint.execute (build Presets.full) 0 in
  let c = Proofs.case2b_constant_switch run.Nonint.kernel in
  Alcotest.(check bool) "case 2b holds" true c.Proofs.holds

let test_case2b_catches_unpadded_idle () =
  (* without deterministic delivery, idle handovers land off the deadline *)
  let run =
    Nonint.execute (build Presets.without_deterministic_delivery) 0
  in
  let c = Proofs.case2b_constant_switch run.Nonint.kernel in
  Alcotest.(check bool) "case 2b detects early handover" false c.Proofs.holds

let test_noninterference_check () =
  let c = Proofs.noninterference (comparisons Presets.full secrets) in
  Alcotest.(check bool) "NI holds" true c.Proofs.holds;
  let c' = Proofs.noninterference (comparisons Presets.none secrets) in
  Alcotest.(check bool) "NI violated without TP" false c'.Proofs.holds

let test_invariants_throughout () =
  let k = (build Presets.full ~secret:0).Nonint.kernel in
  let on_step, verdict = Proofs.invariants_throughout k in
  Kernel.run ~on_step k;
  Alcotest.(check bool) "invariants hold" true (verdict ()).Proofs.holds

let test_across_seeds_conjunction () =
  let c =
    Proofs.across_seeds ~seeds:[ 0; 1 ] (fun ~seed ->
        Proofs.noninterference (comparisons ~seed Presets.full secrets))
  in
  Alcotest.(check bool) "holds across seeds" true c.Proofs.holds

let test_across_seeds_reports_failing_seed () =
  let c =
    Proofs.across_seeds ~seeds:[ 7 ] (fun ~seed ->
        Proofs.noninterference (comparisons ~seed Presets.none secrets))
  in
  Alcotest.(check bool) "failure surfaces" false c.Proofs.holds;
  Alcotest.(check bool) "seed named in detail" true
    (String.length (Proofs.detail_text c.Proofs.detail) > 0)

let test_unwinding_holds_full () =
  let c =
    Unwinding.check_of_pairs
      (List.map
         (fun s ->
           ( (0, s),
             Unwinding.sweep_divergence
               (Unwinding.sweep_pair ~build:(build Presets.full) ~secret1:0
                  ~secret2:s ()) ))
         [ 1; 2 ])
  in
  Alcotest.(check bool) "unwinding relation preserved" true c.Proofs.holds

let test_unwinding_names_component () =
  match
    Unwinding.sweep_divergence
      (Unwinding.sweep_pair ~build:(build Presets.without_colouring) ~secret1:0
         ~secret2:1 ())
  with
  | None -> Alcotest.fail "colour ablation must break the relation"
  | Some d ->
    Alcotest.(check string) "the LLC partition lemma is the broken component"
      "partition:llc" d.Unwinding.component;
    Alcotest.(check bool) "at a definite Lo step" true (d.Unwinding.lo_step >= 1)

(* Every component that diverges without colouring, each at the first
   Lo step it did: a change to Lo's view that moves a component or a
   step fails here. *)
let test_sweep_diverged_without_colouring () =
  let sw =
    Unwinding.sweep_pair ~build:(build Presets.without_colouring) ~secret1:0
      ~secret2:1 ()
  in
  Alcotest.(check (list (pair string int)))
    "diverged"
    [
      ("partition:llc", 1);
      ("lo-observations", 2);
      ("kernel:clock", 2);
      ("flush:l1i0", 594);
      ("flush:l1d0", 594);
      ("flush:TLB", 594);
      ("flush:branch predictor", 594);
      ("flush:prefetcher", 594);
    ]
    sw.Unwinding.diverged;
  Alcotest.(check (option int)) "no progress divergence" None
    sw.Unwinding.progress;
  Alcotest.(check int) "boundaries" 3712 sw.Unwinding.boundaries

let test_lo_view_shape () =
  let run = Nonint.execute (build Presets.full) 0 in
  let lo_dom = (List.hd run.Nonint.observers).Thread.dom in
  let view = Unwinding.lo_view run.Nonint.kernel ~lo_dom in
  Alcotest.(check (list string)) "view components"
    [
      "lo-threads";
      "lo-observations";
      "flush:l1i0";
      "flush:l1d0";
      "flush:TLB";
      "flush:branch predictor";
      "flush:prefetcher";
      "partition:llc";
      "kernel:clock";
    ]
    (List.map fst view)

(* Lo instructions completed by [lo_dom]'s observer threads. *)
let lo_count (run : Nonint.run) ~lo_dom =
  List.fold_left
    (fun acc th ->
      if th.Thread.dom = lo_dom then acc + Thread.cost_count th else acc)
    0 run.Nonint.observers

(* Lo's view folded from scratch, as [Unwinding.lo_view] computed it
   before the sweeps resolved the view once per run and hashed the
   observation trace incrementally: the reference the sweep's view must
   equal at every boundary.  The LLC slice is read straight from the
   cache, leaving the registry resource's memo to the view under test. *)
let fresh_view k ~lo_dom =
  let dom = Kernel.domain k lo_dom in
  let m = Kernel.machine k in
  let core = dom.Domain.core in
  let hash = List.fold_left Rng.combine 0x11L in
  let obs_code = function
    | Event.Clock c -> Int64.of_int ((c lsl 2) lor 1)
    | Event.Latency l -> Int64.of_int ((l lsl 2) lor 2)
    | Event.Recv m -> Int64.of_int ((m lsl 2) lor 3)
  in
  let state_code = function
    | Thread.Ready -> 0
    | Thread.Blocked_send ep -> 4 + (ep lsl 2)
    | Thread.Blocked_recv ep -> 5 + (ep lsl 2)
    | Thread.Halted -> 2
  in
  let threads = Domain.threads dom in
  let view =
    { Resource.lo_colours = dom.Domain.colours; page_bits = Kernel.page_bits k }
  in
  let project r =
    if Resource.classification r = Resource.Partitionable then
      Cache.digest_colours (Machine.llc m) ~page_bits:view.Resource.page_bits
        ~colours:view.Resource.lo_colours ~seed:0x22L
    else Resource.lo_project r view
  in
  ("lo-threads",
   hash
     (List.map
        (fun th ->
          Int64.of_int
            ((th.Thread.pc lsl 16)
            lxor (state_code th.Thread.state lsl 4)
            lxor th.Thread.msg))
        threads))
  :: ("lo-observations",
      hash
        (List.map
           (fun th ->
             List.fold_left
               (fun a o -> Rng.chain a (obs_code o))
               0x11L (Thread.observations th))
           threads))
  :: List.filter_map
       (fun r ->
         Option.map (fun cid -> (cid, project r)) (Resource.lemma_component r))
       (Machine.core_resources m ~core @ Machine.shared_resources m)
  @ [ ("kernel:clock", Int64.of_int (Machine.now m ~core)) ]

(* The view a sweep records, resolved once per run and carried from
   boundary to boundary, must equal the from-scratch one at every Lo
   boundary.  [spawn_at] spawns one more Lo thread, one that makes
   observations of its own, at that boundary: the resolved view must
   notice the changed thread list. *)
let check_memo_matches_fresh ?spawn_at name (run : Nonint.run) ~lo_dom =
  List.iter (fun th -> Thread.set_traced th true) run.Nonint.observers;
  let k = run.Nonint.kernel in
  let record_step, record = Unwinding.record ~lo_dom run in
  let next = ref 1 in
  let on_step n =
    record_step n;
    while !next <= 20_000 && lo_count run ~lo_dom >= !next do
      if Unwinding.recorded_view record !next <> fresh_view k ~lo_dom then
        Alcotest.failf "%s: the sweep's view differs at Lo boundary %d" name
          !next;
      if Some !next = spawn_at then
        ignore
          (Kernel.spawn k (Kernel.domain k lo_dom)
             Program.[| Read_clock; Compute 40; Read_clock; Halt |]);
      incr next
    done
  in
  Kernel.run ~max_steps:2_000_000 ~on_step k;
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d boundaries compared" name (!next - 1))
    true (!next > 10)

let test_memo_view_two_domain () =
  List.iter
    (fun (name, cfg) ->
      let run = build cfg ~secret:0 in
      check_memo_matches_fresh (name ^ " preset") run
        ~lo_dom:(List.hd run.Nonint.observers).Thread.dom)
    Presets.known;
  let run = build Presets.full ~secret:1 in
  check_memo_matches_fresh ~spawn_at:5 "full preset, spawn" run
    ~lo_dom:(List.hd run.Nonint.observers).Thread.dom;
  List.iteri
    (fun preset (name, _) ->
      let s =
        {
          (Tpro_fuzz.Scenario.generate ~seed:42 preset) with
          Tpro_fuzz.Scenario.preset;
          oracle = Tpro_fuzz.Scenario.Nonint;
        }
      in
      let run = Tpro_fuzz.Scenario.build_ni s ~secret:s.secret_b in
      check_memo_matches_fresh ("fuzz machine " ^ name) run
        ~lo_dom:(List.hd run.Nonint.observers).Thread.dom)
    Tpro_fuzz.Scenario.machine_presets

(* Seed-42 topologies: the first with more than one core, and the first
   with SMT, with a BTB, and with an observer owning several colours. *)
let test_memo_view_topology () =
  let open Tpro_fuzz.Topology in
  let ts = List.init 60 (generate ~seed:42) in
  List.iter
    (fun (what, p) ->
      match List.find_opt p ts with
      | None -> Alcotest.failf "no seed-42 topology %s" what
      | Some t ->
        check_memo_matches_fresh
          (Printf.sprintf "topology %d (%s)" t.idx what)
          (build t ~vary:t.deep_hi ~secret:t.secret_b)
          ~lo_dom:t.deep_lo)
    [
      ("multi-core", fun t -> t.n_cores > 1);
      ("smt", fun t -> t.smt);
      ("btb", fun t -> t.btb);
      ("multi-colour observer", fun t -> t.domains.(t.deep_lo).d_colours > 1);
    ]

(* --- the sweep against its lockstep reference ------------------------ *)

(* The lockstep sweep [Unwinding.sweep_pair] used to be, kept as the
   reference for the record-then-compare one: both runs advance
   together to each successive Lo boundary (at most 20,000), each within
   its own kernel-step budget, and their views are compared there; the
   sweep stops where one run can reach a boundary the other cannot. *)
let lockstep_sweep ?max_kernel_steps ?lo_dom ~build ~secret1 ~secret2 () =
  let prepare secret =
    let run = build ~secret in
    List.iter (fun th -> Thread.set_traced th true) run.Nonint.observers;
    run
  in
  let a = prepare secret1 in
  let b = prepare secret2 in
  let lo_dom =
    match lo_dom with
    | Some d -> d
    | None -> (List.hd a.Nonint.observers).Thread.dom
  in
  let budget_a = ref (Option.value max_kernel_steps ~default:max_int) in
  let budget_b = ref (Option.value max_kernel_steps ~default:max_int) in
  let advance run budget ~target =
    let rec go () =
      if lo_count run ~lo_dom >= target then true
      else if !budget > 0 && Kernel.step run.Nonint.kernel then begin
        decr budget;
        go ()
      end
      else false
    in
    go ()
  in
  let components = ref [] and diverged = ref [] and progress = ref None in
  let boundaries = ref 0 in
  let seen = Hashtbl.create 16 in
  let rec go k =
    if k <= 20_000 then begin
      let a_live = advance a budget_a ~target:k in
      let b_live = advance b budget_b ~target:k in
      if a_live <> b_live then progress := Some k
      else if a_live then begin
        incr boundaries;
        let va = fresh_view a.Nonint.kernel ~lo_dom in
        let vb = fresh_view b.Nonint.kernel ~lo_dom in
        if !components = [] then components := List.map fst va;
        List.iter2
          (fun (na, da) (_, db) ->
            if da <> db && not (Hashtbl.mem seen na) then begin
              Hashtbl.add seen na ();
              diverged := (na, k) :: !diverged
            end)
          va vb;
        go (k + 1)
      end
    end
  in
  go 1;
  (!components, List.rev !diverged, !progress, !boundaries)

(* [sweep_pair] must return what the lockstep reference does; the
   reference's outcome is returned so a case can also pin its shape. *)
let check_sweep name ?max_kernel_steps ?lo_dom ~build ~secret1 ~secret2 () =
  let ((components, diverged, progress, boundaries) as reference) =
    lockstep_sweep ?max_kernel_steps ?lo_dom ~build ~secret1 ~secret2 ()
  in
  let sw =
    Unwinding.sweep_pair ?max_kernel_steps ?lo_dom ~build ~secret1 ~secret2 ()
  in
  let label what = Printf.sprintf "%s (%d,%d): %s" name secret1 secret2 what in
  Alcotest.(check (list string)) (label "components") components
    sw.Unwinding.components;
  Alcotest.(check (list (pair string int))) (label "diverged") diverged
    sw.Unwinding.diverged;
  Alcotest.(check (option int)) (label "progress") progress
    sw.Unwinding.progress;
  Alcotest.(check int) (label "boundaries") boundaries sw.Unwinding.boundaries;
  reference

let test_sweep_matches_lockstep_presets () =
  List.iter
    (fun (name, cfg) ->
      List.iter
        (fun secret2 ->
          ignore
            (check_sweep name ~build:(build cfg) ~secret1:0 ~secret2 ()))
        [ 1; 2; 3 ])
    Presets.known

(* Lo runs [5 * secret] more instructions before it halts, so the run
   with the smaller secret quiesces first: a progress divergence. *)
let build_planted ~secret =
  System.build
    (System.spec
       ~machine:(Ni_scenario.machine_config ~seed)
       ~cfg:Presets.full
       [
         System.domain ~slice:Ni_scenario.slice
           ~pad_cycles:Ni_scenario.pad
           ~programs:[ [| Program.Compute 400; Program.Halt |] ]
           ();
         System.domain ~slice:Ni_scenario.slice
           ~pad_cycles:Ni_scenario.pad
           ~programs:
             [
               Array.append
                 (Array.make (40 + (5 * secret)) (Program.Compute 30))
                 [| Program.Read_clock; Program.Halt |];
             ]
           ~observer:true ();
       ])

let test_sweep_matches_lockstep_progress () =
  List.iter
    (fun (secret1, secret2) ->
      let _, _, progress, boundaries =
        check_sweep "planted" ~build:build_planted ~secret1 ~secret2 ()
      in
      Alcotest.(check (option int))
        (Printf.sprintf "planted (%d,%d): progress divergence" secret1 secret2)
        (Some (boundaries + 1)) progress)
    [ (0, 2); (2, 0) ]

let test_sweep_matches_lockstep_lo_dom () =
  let t =
    List.find
      (fun t ->
        t.Tpro_fuzz.Topology.n_cores > 1 && Tpro_fuzz.Topology.n_domains t > 2)
      (List.init 50 (Tpro_fuzz.Topology.generate ~seed:42))
  in
  let vary = t.Tpro_fuzz.Topology.deep_hi in
  let build = Tpro_fuzz.Topology.build t ~vary in
  let default_dom =
    (List.hd (build ~secret:t.Tpro_fuzz.Topology.secret_a).Nonint.observers)
      .Thread.dom
  in
  let lo_dom =
    List.find
      (fun d -> d <> vary && d <> default_dom)
      (List.init (Tpro_fuzz.Topology.n_domains t) Fun.id)
  in
  let _, _, _, boundaries =
    check_sweep
      (Printf.sprintf "topology %d, observer %d" t.Tpro_fuzz.Topology.idx
         lo_dom)
      ~max_kernel_steps:(Tpro_fuzz.Topology.max_steps t) ~lo_dom ~build
      ~secret1:t.Tpro_fuzz.Topology.secret_a
      ~secret2:t.Tpro_fuzz.Topology.secret_b ()
  in
  Alcotest.(check bool) "observer boundaries compared" true (boundaries > 10)

(* Budgets that end the shorter planted run exactly and cut the longer
   one short, and one that cuts both runs of a preset mid-way. *)
let test_sweep_matches_lockstep_budget () =
  let steps secret =
    let k = (build_planted ~secret).Nonint.kernel in
    let rec go n = if Kernel.step k then go (n + 1) else n in
    go 0
  in
  let short = steps 0 and long = steps 4 in
  Alcotest.(check bool) "the runs differ in length" true (short < long);
  List.iter
    (fun (budget, secret1, secret2) ->
      ignore
        (check_sweep (Printf.sprintf "budget %d" budget)
           ~max_kernel_steps:budget ~build:build_planted ~secret1 ~secret2 ()))
    [ (short, 0, 4); (short, 4, 0); ((short + long) / 2, 0, 4) ];
  let _, _, _, boundaries =
    check_sweep "budget 1000" ~max_kernel_steps:1000
      ~build:(build Presets.none) ~secret1:0 ~secret2:1 ()
  in
  Alcotest.(check bool) "the budget cut the sweep" true (boundaries < 3712)

let test_execute_traces_observers () =
  let run = Nonint.execute (build Presets.full) 0 in
  List.iter
    (fun th ->
      Alcotest.(check bool) "cost trace recorded" true
        (Thread.cost_trace th <> []))
    run.Nonint.observers

(* A frame of Lo's colour planted in Hi's buffer before boot: the first
   check, on the booted kernel, finds only the foreign frame; the
   colour-partition violations it causes come later.  The verdict must
   name the earliest violation. *)
let test_invariants_first_violation () =
  let s = Ni_scenario.classic ~with_btb:false ~cfg:Presets.full ~seed:0 ~secret:3 in
  let hi_buf = fst (List.hd (List.hd s.System.domains).System.regions) in
  let tweak k = Tpro_fuzz.Scenario.miscolour_remap k ~victim:0 ~thief:1 ~vbase:hi_buf in
  let k = (System.build { s with System.tweak = Some tweak }).Nonint.kernel in
  let on_step, verdict = Proofs.invariants_throughout k in
  Kernel.run ~on_step k;
  let c = verdict () in
  Alcotest.(check bool) "invariants violated" false c.Proofs.holds;
  let detail = Proofs.detail_text c.Proofs.detail in
  let first = "first: [frame-ownership] domain 0 maps frame 22 of foreign colour 2" in
  Alcotest.(check bool) (detail ^ " names the frame-ownership violation") true
    (String.ends_with ~suffix:first detail)

let suite =
  [
    Alcotest.test_case "full is secure" `Quick test_full_is_secure;
    Alcotest.test_case "none is insecure" `Quick test_none_is_insecure;
    Alcotest.test_case "each ablation leaks" `Slow test_each_ablation_leaks;
    Alcotest.test_case "case 1 (user steps)" `Quick test_case1_full;
    Alcotest.test_case "case 2a (traps)" `Quick test_case2a_full;
    Alcotest.test_case "case 2b (switch slot)" `Quick test_case2b_full;
    Alcotest.test_case "case 2b catches early handover" `Quick
      test_case2b_catches_unpadded_idle;
    Alcotest.test_case "noninterference both ways" `Quick
      test_noninterference_check;
    Alcotest.test_case "invariants throughout" `Quick test_invariants_throughout;
    Alcotest.test_case "across seeds conjunction" `Quick
      test_across_seeds_conjunction;
    Alcotest.test_case "across seeds failure reporting" `Quick
      test_across_seeds_reports_failing_seed;
    Alcotest.test_case "execute traces observers" `Quick
      test_execute_traces_observers;
    Alcotest.test_case "unwinding holds under full TP" `Slow
      test_unwinding_holds_full;
    Alcotest.test_case "unwinding names the broken component" `Quick
      test_unwinding_names_component;
    Alcotest.test_case "sweep diverged list without colouring" `Quick
      test_sweep_diverged_without_colouring;
    Alcotest.test_case "lo_view shape" `Quick test_lo_view_shape;
    Alcotest.test_case "memoised lo_view == fresh (two domains)" `Quick
      test_memo_view_two_domain;
    Alcotest.test_case "memoised lo_view == fresh (multi-core topology)"
      `Quick test_memo_view_topology;
    Alcotest.test_case "sweep == lockstep: every preset" `Slow
      test_sweep_matches_lockstep_presets;
    Alcotest.test_case "sweep == lockstep: progress divergence" `Quick
      test_sweep_matches_lockstep_progress;
    Alcotest.test_case "sweep == lockstep: observer domain" `Quick
      test_sweep_matches_lockstep_lo_dom;
    Alcotest.test_case "sweep == lockstep: kernel-step budget" `Quick
      test_sweep_matches_lockstep_budget;
    Alcotest.test_case "invariants name the first violation" `Quick
      test_invariants_first_violation;
  ]
