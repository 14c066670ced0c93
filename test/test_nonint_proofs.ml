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
  let c =
    Proofs.invariants_throughout ~check_every:100
      ~build:(fun ~secret -> build Presets.full ~secret)
      ~secret:0 ()
  in
  Alcotest.(check bool) "invariants hold" true c.Proofs.holds

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

(* The observation-hash memo is the one memo left in [lo_view]: stepping
   a run boundary by boundary, as the sweep does, the memoised view must
   equal a from-scratch one at every Lo boundary. *)
let check_memo_matches_fresh name (run : Nonint.run) ~lo_dom =
  List.iter (fun th -> Thread.set_traced th true) run.Nonint.observers;
  let lo_count () =
    List.fold_left
      (fun acc th ->
        if th.Thread.dom = lo_dom then acc + Thread.cost_count th else acc)
      0 run.Nonint.observers
  in
  let k = run.Nonint.kernel in
  let memo = Unwinding.obs_memo () in
  let rec go boundary =
    if lo_count () >= boundary then begin
      if Unwinding.lo_view ~memo k ~lo_dom <> Unwinding.lo_view k ~lo_dom then
        Alcotest.failf "%s: memoised view differs at Lo boundary %d" name
          boundary;
      go (boundary + 1)
    end
    else if Kernel.step k then go boundary
    else boundary - 1
  in
  let boundaries = go 1 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d boundaries compared" name boundaries)
    true (boundaries > 10)

let test_memo_view_two_domain () =
  let run = build Presets.full ~secret:0 in
  check_memo_matches_fresh "full preset" run
    ~lo_dom:(List.hd run.Nonint.observers).Thread.dom

let test_memo_view_topology () =
  let t =
    List.find
      (fun t -> t.Tpro_fuzz.Topology.n_cores > 1)
      (List.init 50 (Tpro_fuzz.Topology.generate ~seed:42))
  in
  check_memo_matches_fresh
    (Printf.sprintf "topology %d (%d cores)" t.idx t.n_cores)
    (Tpro_fuzz.Topology.build t ~vary:t.deep_hi ~secret:t.secret_b)
    ~lo_dom:t.deep_lo

let test_execute_traces_observers () =
  let run = Nonint.execute (build Presets.full) 0 in
  List.iter
    (fun th ->
      Alcotest.(check bool) "cost trace recorded" true
        (Thread.cost_trace th <> []))
    run.Nonint.observers

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
  ]
