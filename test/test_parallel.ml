(* The parallel trial engine: Pool semantics, and the determinism
   guarantee that fanning trials out over domains never changes a
   reported outcome. *)

open Tpro_engine

exception Boom of int

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)

let test_map_ordering () =
  Pool.with_pool ~domains:4 (fun pool ->
      let xs = List.init 100 (fun i -> i) in
      Alcotest.(check (list int))
        "results in input order"
        (List.map (fun x -> (x * x) + 1) xs)
        (Pool.map pool (fun x -> (x * x) + 1) xs))

let test_map_empty () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check (list int)) "empty input" []
        (Pool.map pool (fun x -> x) []))

let test_pool_of_one_is_sequential () =
  let pool = Pool.create ~domains:1 () in
  let order = ref [] in
  let xs = [ 5; 3; 9; 1 ] in
  let ys =
    Pool.map pool
      (fun x ->
        order := x :: !order;
        x * 2)
      xs
  in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "same results as List.map" (List.map (( * ) 2) xs) ys;
  Alcotest.(check (list int))
    "executed left to right, in the calling domain" xs (List.rev !order)

let test_exceptions_propagate () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "raises the submitted exception" (Boom 3)
        (fun () ->
          ignore
            (Pool.map pool
               (fun x -> if x = 3 then raise (Boom x) else x)
               [ 1; 2; 3; 4; 5 ])))

let test_lowest_index_exception_wins () =
  (* several elements fail; the propagated exception is deterministically
     the one a sequential left-to-right map would have hit first *)
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "lowest-indexed failure" (Boom 2) (fun () ->
          ignore
            (Pool.map pool
               (fun x -> if x mod 2 = 0 then raise (Boom x) else x)
               [ 1; 2; 3; 4; 5; 6 ])))

let test_pool_reuse_and_shutdown () =
  let pool = Pool.create ~domains:3 () in
  let a = Pool.map pool succ [ 1; 2; 3 ] in
  let b = Pool.map pool pred [ 1; 2; 3 ] in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  (* a shut-down pool still maps, sequentially *)
  let c = Pool.map pool succ [ 10; 20 ] in
  Alcotest.(check (list int)) "first map" [ 2; 3; 4 ] a;
  Alcotest.(check (list int)) "second map" [ 0; 1; 2 ] b;
  Alcotest.(check (list int)) "after shutdown" [ 11; 21 ] c

(* Regression (supervision work): map on a shut-down pool must keep
   both halves of the contract — run sequentially in the calling domain,
   and re-raise the lowest-indexed failure. *)
let test_map_after_shutdown () =
  let pool = Pool.create ~domains:3 () in
  Pool.shutdown pool;
  let order = ref [] in
  let ys =
    Pool.map pool
      (fun x ->
        order := x :: !order;
        x * 3)
      (List.init 10 Fun.id)
  in
  Alcotest.(check (list int))
    "sequential fallback maps in order"
    (List.init 10 (fun i -> i * 3))
    ys;
  Alcotest.(check (list int))
    "executed left to right in the calling domain"
    (List.init 10 Fun.id) (List.rev !order);
  Alcotest.check_raises "lowest-indexed failure re-raised" (Boom 3)
    (fun () ->
      ignore
        (Pool.map pool
           (fun x -> if x >= 3 then raise (Boom x) else x)
           [ 0; 1; 2; 3; 4; 5; 6; 7 ]))

let test_parallel_sum () =
  Pool.with_pool ~domains:4 (fun pool ->
      let xs = List.init 500 (fun i -> i) in
      let squares = Pool.map pool (fun x -> x * x) xs in
      Alcotest.(check int) "sum of squares"
        (List.fold_left (fun a x -> a + (x * x)) 0 xs)
        (List.fold_left ( + ) 0 squares))

let test_nested_map () =
  (* a job that itself maps on the same pool must not deadlock *)
  Pool.with_pool ~domains:3 (fun pool ->
      let rows =
        Pool.map pool
          (fun r -> Pool.map pool (fun c -> (r * 10) + c) [ 0; 1; 2 ])
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list (list int)))
        "nested results"
        [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ]; [ 40; 41; 42 ] ]
        rows)

(* ------------------------------------------------------------------ *)
(* Determinism: pooled measure == sequential measure, bit for bit      *)

let check_outcome_equal name (a : Tpro_channel.Attack.outcome)
    (b : Tpro_channel.Attack.outcome) =
  Alcotest.(check (list (pair int int)))
    (name ^ ": samples") a.Tpro_channel.Attack.samples
    b.Tpro_channel.Attack.samples;
  Alcotest.(check bool)
    (name ^ ": capacity bit-identical") true
    (Int64.bits_of_float a.Tpro_channel.Attack.capacity_bits
    = Int64.bits_of_float b.Tpro_channel.Attack.capacity_bits);
  Alcotest.(check int)
    (name ^ ": distinct outputs") a.Tpro_channel.Attack.distinct_outputs
    b.Tpro_channel.Attack.distinct_outputs

let presets =
  Time_protection.Presets.standard @ Time_protection.Presets.ablations

let test_pooled_measure_every_preset () =
  let scenario = Tpro_channel.Cache_channel.l1_scenario () in
  let seeds = [ 0; 1 ] in
  List.iter
    (fun (name, cfg) ->
      let seq = Tpro_channel.Attack.measure ~seeds scenario ~cfg () in
      let par =
        Pool.with_pool ~domains:4 (fun pool ->
            Tpro_channel.Attack.measure ~seeds ~pool scenario ~cfg ())
      in
      check_outcome_equal name seq par)
    presets

let test_measure_shared_pool () =
  (* reusing one pool across scenarios and configs changes nothing *)
  let seeds = [ 0 ] in
  Pool.with_pool ~domains:4 (fun pool ->
      List.iter
        (fun scenario ->
          List.iter
            (fun (name, cfg) ->
              let seq = Tpro_channel.Attack.measure ~seeds scenario ~cfg () in
              let par =
                Tpro_channel.Attack.measure ~seeds ~pool scenario ~cfg ()
              in
              check_outcome_equal name seq par)
            Time_protection.Presets.standard)
        [
          Tpro_channel.Cache_channel.llc_scenario ();
          Tpro_channel.Tlb_channel.scenario ();
        ])

let test_experiment_table_par () =
  (* a full experiment table through by_id: pool vs. no pool *)
  match Time_protection.Experiments.by_id "e2" with
  | None -> Alcotest.fail "e2 missing"
  | Some f ->
    let seeds = [ 0; 1 ] in
    let seq = f ~seeds () in
    let par =
      Pool.with_pool ~domains:4 (fun pool -> f ~seeds ~pool ())
    in
    Alcotest.(check bool) "table identical" true (seq = par)

(* ------------------------------------------------------------------ *)
(* Exhaustive sweep: pooled check == sequential check                  *)

let small_universe =
  let open Tpro_secmodel.Exhaustive in
  {
    hi_len = 2;
    hi_alphabet =
      (match default_universe.hi_alphabet with
      | a :: b :: c :: _ -> [ a; b; c ]
      | l -> l);
    seeds = [ 0 ];
  }

let exhaustive_result_testable =
  Alcotest.testable
    (fun ppf (r : Tpro_secmodel.Exhaustive.result) ->
      Format.fprintf ppf "{programs=%d; executions=%d; violations=%d; first=%s}"
        r.Tpro_secmodel.Exhaustive.programs r.Tpro_secmodel.Exhaustive.executions
        r.Tpro_secmodel.Exhaustive.violations
        (Option.value ~default:"-" r.Tpro_secmodel.Exhaustive.first_violation))
    ( = )

let exhaustive_build ~cfg ~hi_prog ~seed =
  Time_protection.Ni_scenario.build_with_program_on ~with_btb:false ~cfg ~seed ~hi_prog

let test_pooled_check_matches_check () =
  List.iter
    (fun (_, cfg) ->
      let build = exhaustive_build ~cfg in
      let seq = Tpro_secmodel.Exhaustive.check ~build small_universe in
      let par =
        Pool.with_pool ~domains:4 (fun pool ->
            Tpro_secmodel.Exhaustive.check ~pool ~build small_universe)
      in
      Alcotest.check exhaustive_result_testable "same sweep result" seq par)
    [
      ("none", Time_protection.Presets.none);
      ("full", Time_protection.Presets.full);
    ]

(* ------------------------------------------------------------------ *)
(* Scheduler determinism regressions: the pool must leave every
   user-facing report byte-identical whatever the fan-out — campaign,
   prove and topology sweeps at -j 1, -j 4 and pool-less sequential, on
   two seeds, including runs resumed from a checkpoint written under a
   *different* fan-out. *)

let with_tmp f =
  let path = Filename.temp_file "tpro-par-ck" ".txt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let render_failure_list fs =
  String.concat "\n---\n"
    (List.map (Format.asprintf "%a" Tpro_fuzz.Driver.pp_failure) fs)

let render_campaign c = render_failure_list c.Tpro_fuzz.Driver.failures

let campaign_at ?(mutant = Tpro_fuzz.Scenario.Drop_padding) ?checkpoint ?resume
    ~domains ~seed ~trials () =
  Supervisor.with_supervisor ~domains (fun sup ->
      Tpro_fuzz.Driver.campaign ~sup ~mutant ?checkpoint ?resume
        ~checkpoint_every:2 ~seed ~trials ())

(* Drop-padding draws only Nonint trials; skip-flush sends every odd
   trial to the Legacy oracle, so both oracles' verdicts must be
   independent of the pool's width. *)
let test_campaign_identical_across_j () =
  List.iter
    (fun mutant ->
      let name = Tpro_fuzz.Scenario.mutant_to_string mutant in
      List.iter
        (fun seed ->
          (* pool-less Driver.run is the sequential reference *)
          let reference = Tpro_fuzz.Driver.run ~mutant ~seed ~trials:6 () in
          let seq = render_failure_list reference in
          let j1 = campaign_at ~mutant ~domains:1 ~seed ~trials:6 () in
          let j4 = campaign_at ~mutant ~domains:4 ~seed ~trials:6 () in
          if seed = 42 then
            Alcotest.(check bool)
              (name ^ ": the mutant produces violations")
              true
              (j4.Tpro_fuzz.Driver.failures <> []);
          Alcotest.(check string)
            (Printf.sprintf "%s, seed %d: -j 1 == sequential" name seed)
            seq (render_campaign j1);
          Alcotest.(check string)
            (Printf.sprintf "%s, seed %d: -j 4 == sequential" name seed)
            seq (render_campaign j4))
        [ 42; 7 ])
    [ Tpro_fuzz.Scenario.Drop_padding; Tpro_fuzz.Scenario.Skip_flush ]

let test_campaign_resume_across_j () =
  (* checkpoint written under -j 1, resumed under -j 4: the fan-out of
     either half must not leak into the report *)
  let uninterrupted = campaign_at ~domains:1 ~seed:42 ~trials:6 () in
  with_tmp (fun path ->
      Sys.remove path;
      let partial = campaign_at ~checkpoint:path ~domains:1 ~seed:42 ~trials:3 () in
      Alcotest.(check int) "partial run started fresh" 0
        partial.Tpro_fuzz.Driver.resumed_from;
      Alcotest.(check bool) "checkpoint written" true (Sys.file_exists path);
      let resumed =
        campaign_at ~checkpoint:path ~resume:true ~domains:4 ~seed:42
          ~trials:6 ()
      in
      Alcotest.(check int) "resumed from the -j 1 checkpoint" 3
        resumed.Tpro_fuzz.Driver.resumed_from;
      Alcotest.(check string)
        "-j 4 resume byte-identical to -j 1 uninterrupted"
        (render_campaign uninterrupted)
        (render_campaign resumed))

let prove_presets =
  [ ("full", Time_protection.Presets.full);
    ("none", Time_protection.Presets.none) ]

let prove_at ?checkpoint ?resume ~domains () =
  Supervisor.with_supervisor ~domains (fun sup ->
      Time_protection.Prove.run ~sup ?checkpoint ?resume
        ~acknowledge:[ "memory interconnect" ] ~seeds:[ 0 ] ~secrets:[ 0; 1 ]
        ~presets:prove_presets ())

let render_prove (o : Time_protection.Prove.outcome) =
  Time_protection.Prove.to_json o.Time_protection.Prove.reports
  ^ "\n"
  ^ String.concat "\n"
      (List.map
         (Format.asprintf "%a" Time_protection.Prove.pp_report)
         o.Time_protection.Prove.reports)

let test_prove_identical_across_j () =
  let j1 = prove_at ~domains:1 () in
  let j4 = prove_at ~domains:4 () in
  Alcotest.(check string)
    "prove: -j 4 lemma table and reports == -j 1"
    (render_prove j1) (render_prove j4)

let test_prove_resume_across_j () =
  (* evidence checkpointed under -j 4, recomposed from the checkpoint
     under -j 1: same theorem, bit for bit *)
  with_tmp (fun path ->
      Sys.remove path;
      let reference = prove_at ~checkpoint:path ~domains:4 () in
      let resumed = prove_at ~checkpoint:path ~resume:true ~domains:1 () in
      Alcotest.(check bool) "tasks reused from the checkpoint" true
        (resumed.Time_protection.Prove.resumed_tasks > 0);
      Alcotest.(check string)
        "resumed -j 1 report == uninterrupted -j 4 report"
        (render_prove reference) (render_prove resumed))

let render_topo_list fs =
  String.concat "\n---\n"
    (List.map (Format.asprintf "%a" Tpro_fuzz.Driver.pp_topo_failure) fs)

let test_topo_identical_across_j () =
  List.iter
    (fun seed ->
      let run ?pool () =
        Tpro_fuzz.Driver.topo_run ?pool
          ~mutant:Tpro_fuzz.Scenario.Drop_padding ~max_domains:3 ~max_cores:2
          ~seed ~trials:8 ()
      in
      let seq = render_topo_list (run ()) in
      let j1 =
        Pool.with_pool ~domains:1 (fun pool -> render_topo_list (run ~pool ()))
      in
      let j4 =
        Pool.with_pool ~domains:4 (fun pool -> render_topo_list (run ~pool ()))
      in
      if seed = 42 then
        Alcotest.(check bool) "the mutant kills some topology" true (seq <> "");
      Alcotest.(check string)
        (Printf.sprintf "topo seed %d: -j 1 == sequential" seed)
        seq j1;
      Alcotest.(check string)
        (Printf.sprintf "topo seed %d: -j 4 == sequential" seed)
        seq j4)
    [ 42; 7 ]

let topo_campaign_at ?checkpoint ?resume ~domains ~trials () =
  Supervisor.with_supervisor ~domains (fun sup ->
      Tpro_fuzz.Driver.topo_campaign ~sup
        ~mutant:Tpro_fuzz.Scenario.Drop_padding ?checkpoint ?resume
        ~checkpoint_every:2 ~max_domains:3 ~max_cores:2 ~seed:42 ~trials ())

let test_topo_campaign_resume_across_j () =
  let uninterrupted = topo_campaign_at ~domains:4 ~trials:6 () in
  with_tmp (fun path ->
      Sys.remove path;
      let _partial = topo_campaign_at ~checkpoint:path ~domains:4 ~trials:3 () in
      let resumed =
        topo_campaign_at ~checkpoint:path ~resume:true ~domains:1 ~trials:6 ()
      in
      Alcotest.(check bool) "resumed from the -j 4 checkpoint" true
        (resumed.Tpro_fuzz.Driver.topo_resumed_from > 0);
      Alcotest.(check string)
        "topo -j 1 resume byte-identical to -j 4 uninterrupted"
        (render_topo_list uninterrupted.Tpro_fuzz.Driver.topo_failures)
        (render_topo_list resumed.Tpro_fuzz.Driver.topo_failures))

let suite =
  [
    Alcotest.test_case "pool: map preserves order" `Quick test_map_ordering;
    Alcotest.test_case "pool: empty input" `Quick test_map_empty;
    Alcotest.test_case "pool of 1 == sequential" `Quick
      test_pool_of_one_is_sequential;
    Alcotest.test_case "pool: exceptions propagate" `Quick
      test_exceptions_propagate;
    Alcotest.test_case "pool: lowest-index exception wins" `Quick
      test_lowest_index_exception_wins;
    Alcotest.test_case "pool: reuse and idempotent shutdown" `Quick
      test_pool_reuse_and_shutdown;
    Alcotest.test_case "pool: map after shutdown" `Quick
      test_map_after_shutdown;
    Alcotest.test_case "pool: 500-way fan-out sums" `Quick test_parallel_sum;
    Alcotest.test_case "pool: nested map does not deadlock" `Quick
      test_nested_map;
    Alcotest.test_case "pooled measure per preset" `Quick
      test_pooled_measure_every_preset;
    Alcotest.test_case "measure over a shared pool" `Quick
      test_measure_shared_pool;
    Alcotest.test_case "experiment table identical with pool" `Quick
      test_experiment_table_par;
    Alcotest.test_case "pooled exhaustive check" `Quick
      test_pooled_check_matches_check;
    Alcotest.test_case "campaign identical across -j, two seeds" `Quick
      test_campaign_identical_across_j;
    Alcotest.test_case "campaign resumed across -j stays identical" `Quick
      test_campaign_resume_across_j;
    Alcotest.test_case "prove identical across -j" `Quick
      test_prove_identical_across_j;
    Alcotest.test_case "prove resumed across -j stays identical" `Quick
      test_prove_resume_across_j;
    Alcotest.test_case "topology sweep identical across -j, two seeds" `Quick
      test_topo_identical_across_j;
    Alcotest.test_case "topo campaign resumed across -j stays identical" `Quick
      test_topo_campaign_resume_across_j;
  ]
