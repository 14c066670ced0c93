open Tpro_hw
open Tpro_secmodel

(* ----------------------------------------------------------------- *)
(* Legacy reference implementations: the per-field digest and flush
   code exactly as it stood before the resource registry, extended with
   the BTB chain.  They re-fold every structure from scratch, so the
   registry folds must reproduce them bit-for-bit through the digest
   caches.  This is the only straight-line copy of the registry's shape. *)

let legacy_digest_core m ~core =
  let open Rng in
  let l2d =
    match Machine.l2 m ~core with Some l2 -> Cache.digest_fold l2 | None -> 17L
  in
  let pf = Prefetch.digest_fold (Machine.prefetch m ~core) in
  let spec_tail =
    match Machine.btb m ~core with
    | Some b -> combine pf (Btb.digest_fold b)
    | None -> pf
  in
  combine
    (combine
       (Cache.digest_fold (Machine.l1i m ~core))
       (combine (Cache.digest_fold (Machine.l1d m ~core)) l2d))
    (combine
       (Tlb.digest_fold (Machine.tlb m ~core))
       (combine (Bpred.digest_fold (Machine.bpred m ~core)) spec_tail))

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

(* ----------------------------------------------------------------- *)
(* Machine presets: every structural variation the config can express  *)

let with_l2 =
  {
    Machine.default_config with
    Machine.l2_geom = Some (Cache.geometry ~sets:256 ~ways:8 ~line_bits:6 ());
  }

let quad = { Machine.default_config with Machine.n_cores = 4 }

let smt2 = { Machine.default_config with Machine.n_cores = 2; smt = true }

let prand =
  { Machine.default_config with Machine.replacement = Cache.Pseudo_random 7 }

let small_llc =
  {
    Machine.default_config with
    Machine.llc_geom = Cache.geometry ~sets:256 ~ways:4 ~line_bits:6 ();
    n_frames = 512;
  }

let btb_cfg = { Machine.default_config with Machine.btb_entries = Some 64 }

let presets =
  [
    ("default", Machine.default_config);
    ("with-l2", with_l2);
    ("quad-core", quad);
    ("smt", smt2);
    ("pseudo-random", prand);
    ("small-llc", small_llc);
    ("btb", btb_cfg);
  ]

(* Drive a core through a random mix of physical touches, fetches and
   branches — enough to dirty caches, fill the TLB-free paths, train the
   predictor and stride the prefetcher. *)
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
        (Machine.branch m ~core ~pc:(Rng.int rng 256 * 4)
           ~taken:(Rng.bool rng))
  done

let test_digests_match_legacy () =
  List.iter
    (fun (pname, cfg) ->
      List.iter
        (fun seed ->
          let m = Machine.create cfg in
          for core = 0 to Machine.n_cores m - 1 do
            run_trace m ~core ~seed:(seed + core) ~steps:400
          done;
          for core = 0 to Machine.n_cores m - 1 do
            Alcotest.(check int64)
              (Printf.sprintf "%s/seed %d/core %d digest_core" pname seed core)
              (legacy_digest_core m ~core)
              (Machine.digest_core m ~core)
          done;
          Alcotest.(check int64)
            (Printf.sprintf "%s/seed %d digest_shared" pname seed)
            (legacy_digest_shared m) (Machine.digest_shared m))
        [ 0; 1; 2 ])
    presets

let test_flush_matches_legacy () =
  List.iter
    (fun (pname, cfg) ->
      List.iter
        (fun seed ->
          let m = Machine.create cfg in
          run_trace m ~core:0 ~seed ~steps:600;
          let expect = legacy_flush_cost m ~core:0 in
          let got = Machine.flush_core_local m ~core:0 in
          Alcotest.(check int)
            (Printf.sprintf "%s/seed %d flush cost" pname seed)
            expect got;
          (* post-flush private state is indistinguishable from fresh *)
          Alcotest.(check int64)
            (Printf.sprintf "%s/seed %d post-flush digest" pname seed)
            (Machine.digest_core (Machine.create cfg) ~core:0)
            (Machine.digest_core m ~core:0))
        [ 0; 3; 5 ])
    presets

let prop_digest_matches_legacy =
  QCheck.Test.make ~name:"registry digest == legacy digest (random traces)"
    ~count:60
    QCheck.(pair small_int (int_bound (List.length presets - 1)))
    (fun (seed, pidx) ->
      let _, cfg = List.nth presets pidx in
      let m = Machine.create cfg in
      for core = 0 to Machine.n_cores m - 1 do
        run_trace m ~core ~seed:(seed + (17 * core)) ~steps:200
      done;
      let ok = ref (Machine.digest_shared m = legacy_digest_shared m) in
      for core = 0 to Machine.n_cores m - 1 do
        ok :=
          !ok && Machine.digest_core m ~core = legacy_digest_core m ~core
      done;
      !ok)

(* ----------------------------------------------------------------- *)
(* A dummy resource registered at runtime must show up everywhere:
   digests, flush accounting (count and cost) and the derived taxonomy. *)

let test_dummy_resource_registration () =
  let m = Machine.create Machine.default_config in
  let flushes = ref 0 in
  let state = ref 42L in
  let dummy =
    Resource.make ~name:"victim write buffer"
      ~classification:Resource.Flushable
      ~digest:(fun () -> !state)
      ~flush:(fun () ->
        incr flushes;
        state := 0L;
        { Resource.dirty_writebacks = 3; extra_cycles = 7 })
      ()
  in
  let before = Machine.digest_core m ~core:0 in
  Machine.register_core_resource m ~core:0 dummy;
  Alcotest.(check bool) "listed among core resources" true
    (List.exists
       (fun r -> Resource.name r = "victim write buffer")
       (Machine.core_resources m ~core:0));
  let after = Machine.digest_core m ~core:0 in
  Alcotest.(check bool) "participates in digest_core" true (before <> after);
  state := 43L;
  Alcotest.(check bool) "digest tracks its state" true
    (Machine.digest_core m ~core:0 <> after);
  (* derived taxonomy picks it up, still classified and in scope *)
  (match Mstate.find (Mstate.of_machine m) "victim write buffer" with
  | Some c ->
    Alcotest.(check bool) "classified flushable" true
      (Mstate.classify c = Mstate.Flushable);
    Alcotest.(check bool) "in scope" true (Mstate.in_scope c)
  | None -> Alcotest.fail "dummy resource missing from derived taxonomy");
  Alcotest.(check bool) "aISA still satisfied" true
    (Mstate.aisa_satisfied ~machine:m ());
  (* flush accounting: the report names it, and the cost includes its
     write-backs and extra cycles (fresh caches contribute nothing) *)
  let l = Machine.lat m in
  let pre = Machine.digest_core m ~core:0 in
  let cost, reports = Machine.flush_core_local_report m ~core:0 in
  Alcotest.(check bool) "named in flush report" true
    (List.mem_assoc "victim write buffer" reports);
  Alcotest.(check int) "flushed exactly once" 1 !flushes;
  Alcotest.(check int) "cost includes its write-backs and extra cycles"
    (l.Latency.flush_base + (3 * l.Latency.dirty_wb) + 7
    + Latency.jitter l pre)
    cost;
  Alcotest.(check int64) "flush reset its state" 0L !state

(* A Neither resource registered as shared must fail the aISA audit if
   claimed in scope, and pass if declared out of scope. *)
let test_neither_scope_audit () =
  let m = Machine.create Machine.default_config in
  Machine.register_shared_resource m
    (Resource.make ~name:"row buffer" ~classification:Resource.Neither
       ~in_scope:true
       ~digest:(fun () -> 0L)
       ~flush:(fun () -> Resource.no_flush)
       ());
  Alcotest.(check bool) "in-scope Neither state violates the aISA" false
    (Mstate.aisa_satisfied ~machine:m ());
  let m2 = Machine.create Machine.default_config in
  Machine.register_shared_resource m2
    (Resource.make ~name:"row buffer" ~classification:Resource.Neither
       ~digest:(fun () -> 0L)
       ~flush:(fun () -> Resource.no_flush)
       ());
  Alcotest.(check bool) "out-of-scope Neither state is admissible" true
    (Mstate.aisa_satisfied ~machine:m2 ())

(* ----------------------------------------------------------------- *)
(* BTB: the resource added end-to-end through the registry alone       *)

let test_btb_end_to_end () =
  let m = Machine.create btb_cfg in
  let plain = Machine.create Machine.default_config in
  (* timing: against an identical BTB-less machine, the first taken
     branch pays one extra misprediction (target unknown), a repeat of
     the same branch pays nothing extra (BTB hit) *)
  let miss = (Machine.lat m).Latency.branch_miss in
  let c1 = Machine.branch m ~core:0 ~pc:68 ~taken:true in
  let p1 = Machine.branch plain ~core:0 ~pc:68 ~taken:true in
  Alcotest.(check int) "first taken branch pays the BTB-miss penalty"
    (p1 + miss) c1;
  let c2 = Machine.branch m ~core:0 ~pc:68 ~taken:true in
  let p2 = Machine.branch plain ~core:0 ~pc:68 ~taken:true in
  Alcotest.(check int) "repeat is a BTB hit" p2 c2;
  (* state: visible to digest_core through the registry alone *)
  let d = Machine.digest_core m ~core:0 in
  (match Machine.btb m ~core:0 with
  | Some b ->
    Alcotest.(check int) "target installed" 1 (Btb.entry_count b);
    Btb.update b ~pc:132 ~target:136;
    Alcotest.(check bool) "BTB-only change moves digest_core" true
      (Machine.digest_core m ~core:0 <> d)
  | None -> Alcotest.fail "btb_entries did not configure a BTB");
  (* flush: reset with everything else, back to the fresh digest *)
  let (_ : int) = Machine.flush_core_local m ~core:0 in
  (match Machine.btb m ~core:0 with
  | Some b -> Alcotest.(check int) "flush empties the BTB" 0 (Btb.entry_count b)
  | None -> assert false);
  Alcotest.(check int64) "post-flush digest is fresh"
    (Machine.digest_core (Machine.create btb_cfg) ~core:0)
    (Machine.digest_core m ~core:0);
  (* taxonomy: derived, no enum edit anywhere *)
  match Mstate.find (Mstate.of_machine m) "branch target buffer" with
  | Some c ->
    Alcotest.(check bool) "classified flushable" true
      (Mstate.classify c = Mstate.Flushable);
    Alcotest.(check bool) "aISA satisfied with BTB" true
      (Mstate.aisa_satisfied ~machine:m ())
  | None -> Alcotest.fail "BTB missing from derived taxonomy"

let test_btb_default_absent () =
  let m = Machine.create Machine.default_config in
  Alcotest.(check bool) "no BTB by default" true (Machine.btb m ~core:0 = None);
  Alcotest.(check bool) "not in the taxonomy when absent" true
    (Mstate.find (Mstate.of_machine m) "branch target buffer" = None)

(* ----------------------------------------------------------------- *)
(* Flush coverage: on every structural preset, with and without a BTB,
   a core-local flush must report every Flushable resource by name —
   this is the invariant Kernel.do_switch audits with
   Uncovered_flushable, checked here at the machine layer directly.    *)

let flush_presets =
  presets
  @ List.filter_map
      (fun (n, c) ->
        if c.Machine.btb_entries = None then
          Some (n ^ "+btb", { c with Machine.btb_entries = Some 64 })
        else None)
      presets

let prop_flush_covers_flushables =
  QCheck.Test.make
    ~name:"flush report covers every flushable (presets incl. BTB)" ~count:40
    QCheck.small_int
    (fun seed ->
      List.for_all
        (fun (_, cfg) ->
          let m = Machine.create cfg in
          run_trace m ~core:0 ~seed ~steps:150;
          let _cost, reports = Machine.flush_core_local_report m ~core:0 in
          List.for_all
            (fun r ->
              (not (Resource.present r && Resource.flushable r))
              || List.mem_assoc (Resource.name r) reports)
            (Machine.core_resources m ~core:0))
        flush_presets)

(* ----------------------------------------------------------------- *)
(* Golden fixture: every experiment table (E1-E20), as captured from
   `tpro all --csv`, must be reproduced bit-for-bit.                    *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_experiment_tables_bit_identical () =
  let golden = read_file "golden_experiments.csv" in
  let tables = Time_protection.Experiments.all_par () in
  let csv =
    String.concat "" (List.map Time_protection.Table.to_csv tables)
  in
  Alcotest.(check string) "E1-E20 tables bit-identical" golden csv

let suite =
  [
    Alcotest.test_case "registry digests match legacy (presets)" `Quick
      test_digests_match_legacy;
    Alcotest.test_case "registry flush matches legacy (presets)" `Quick
      test_flush_matches_legacy;
    QCheck_alcotest.to_alcotest prop_digest_matches_legacy;
    QCheck_alcotest.to_alcotest prop_flush_covers_flushables;
    Alcotest.test_case "dummy resource registration" `Quick
      test_dummy_resource_registration;
    Alcotest.test_case "Neither-state scope audit" `Quick
      test_neither_scope_audit;
    Alcotest.test_case "BTB end-to-end through the registry" `Quick
      test_btb_end_to_end;
    Alcotest.test_case "BTB absent by default" `Quick test_btb_default_absent;
    Alcotest.test_case "experiment tables bit-identical" `Quick
      test_experiment_tables_bit_identical;
  ]
