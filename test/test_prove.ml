(* The composed theorem and its supervised derivation: composition
   semantics, evidence serialisation, registry-driven scope obligations
   (a resource registered with no defence must be acknowledged or the
   theorem fails — with zero edits to the security model), the per-kind
   exhaustive universes, and [Prove.run] end to end. *)

open Tpro_secmodel
module Resource = Tpro_hw.Resource
module Machine = Tpro_hw.Machine
module Ni_scenario = Time_protection.Ni_scenario
module Presets = Time_protection.Presets
module Prove = Time_protection.Prove

let smoke_seeds = [ 0 ]
let smoke_secrets = [ 0; 1 ]

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1)) in
  go 0

let lemma ?(verdict = Lemma.Proved "ok") lid =
  {
    Lemma.lid;
    subject = lid;
    mechanism = Lemma.Flush;
    statement = "test lemma";
    verdict;
  }

(* --- compose ------------------------------------------------------- *)

let test_compose_semantics () =
  let t = Theorem.compose [ lemma "a"; lemma "b" ] in
  Alcotest.(check bool) "all proved holds" true t.Theorem.holds;
  Alcotest.(check int) "nothing refuted" 0 (List.length t.Theorem.refuted);
  let t =
    Theorem.compose
      [ lemma "a"; lemma ~verdict:(Lemma.Refuted "broken") "b"; lemma "c" ]
  in
  Alcotest.(check bool) "one refutation sinks it" false t.Theorem.holds;
  (match t.Theorem.first_counter_example with
  | Some (lid, detail) ->
    Alcotest.(check string) "counter-example names the lemma" "b" lid;
    Alcotest.(check string) "counter-example carries the detail" "broken"
      detail
  | None -> Alcotest.fail "refuted theorem must expose a counter-example");
  let unack =
    lemma ~verdict:(Lemma.Unscoped { acknowledged = false }) "scope:x"
  in
  let t = Theorem.compose [ lemma "a"; unack ] in
  Alcotest.(check bool) "unacknowledged scope sinks it" false t.Theorem.holds;
  Alcotest.(check (list string)) "unacknowledged is named" [ "scope:x" ]
    t.Theorem.unacknowledged;
  let ack = lemma ~verdict:(Lemma.Unscoped { acknowledged = true }) "scope:x" in
  let t = Theorem.compose [ lemma "a"; ack ] in
  Alcotest.(check bool) "acknowledged scope passes" true t.Theorem.holds

(* --- evidence serialisation ---------------------------------------- *)

let collect_smoke ?(cfg = Presets.full) () =
  Theorem.collect ~seed:0
    ~build:(fun ~secret ->
      Ni_scenario.build_with ~with_btb:true ~cfg ~seed:0 ~secret)
    ~secrets:smoke_secrets ()

let test_evidence_roundtrip () =
  List.iter
    (fun cfg ->
      let ev = collect_smoke ~cfg () in
      let s = Theorem.evidence_to_string ev in
      match Theorem.evidence_of_string s with
      | Error m -> Alcotest.failf "evidence_of_string: %s" m
      | Ok ev' ->
        Alcotest.(check string)
          "round-trip re-serialises identically"
          s
          (Theorem.evidence_to_string ev');
        (* the reconstructed checks are byte-identical too *)
        let render evidence =
          String.concat "\n"
            (List.map
               (fun c -> Format.asprintf "%a" Proofs.pp c)
               (Theorem.checks_of_evidence [ evidence ]))
        in
        Alcotest.(check string) "checks from round-tripped evidence" (render ev)
          (render ev'))
    [ Presets.full; Presets.none ];
  match Theorem.evidence_of_string "seed\tnot-a-number\n" with
  | Ok _ -> Alcotest.fail "malformed evidence must not parse"
  | Error _ -> ()

(* One latency seed over four secrets: each secret is built and executed
   once (4 builds).  The first run also records the unwinding views and
   carries the invariant checks; the other three are swept against it
   and compared with it.  A sample with one distinct secret is refused
   before anything is built. *)
let test_collect_builds_each_secret_once () =
  let builds = ref 0 in
  let build ~secret =
    incr builds;
    Ni_scenario.build_with ~with_btb:true ~cfg:Presets.full ~seed:0 ~secret
  in
  ignore (Theorem.collect ~seed:0 ~build ~secrets:[ 0; 1; 2; 3 ] ());
  Alcotest.(check int) "builds per seed" 4 !builds;
  builds := 0;
  Alcotest.check_raises "one distinct secret is refused"
    (Invalid_argument
       "Theorem.collect: need at least two distinct secrets, got 2,2")
    (fun () -> ignore (Theorem.collect ~seed:0 ~build ~secrets:[ 2; 2 ] ()));
  Alcotest.(check int) "nothing built" 0 !builds

(* --- the verify path consumes the theorem -------------------------- *)

let test_verify_carries_theorem () =
  let r = Time_protection.Verify.run ~seeds:smoke_seeds ~secrets:smoke_secrets
      ~cfg:Presets.full () in
  Alcotest.(check bool) "full verifies" true r.Time_protection.Verify.all_hold;
  let t = r.Time_protection.Verify.theorem in
  Alcotest.(check bool) "theorem holds" true t.Theorem.holds;
  (* the registry's out-of-scope resource is acknowledged by the audit *)
  Alcotest.(check (list string)) "no unacknowledged scope" []
    t.Theorem.unacknowledged;
  Alcotest.(check bool) "interconnect scope lemma present" true
    (List.exists
       (fun l -> l.Lemma.lid = "scope:memory interconnect")
       t.Theorem.lemmas);
  let r = Time_protection.Verify.run ~seeds:smoke_seeds ~secrets:smoke_secrets
      ~cfg:Presets.none () in
  Alcotest.(check bool) "none is refuted" false r.Time_protection.Verify.all_hold;
  Alcotest.(check bool) "theorem refuted under none" true
    (r.Time_protection.Verify.theorem.Theorem.refuted <> [])

(* A preset name as a fixture file name: [full\flush] is
   [full_flush], [flush+pad] is [flush_pad]. *)
let file_safe = String.map (function '\\' | '+' -> '_' | c -> c)

(* The whole verify report, byte for byte, for every preset: E7's table
   cuts each detail to 57 characters, so this is what pins the full
   case-1, case-2a, invariant and noninterference details. *)
let test_verify_report_pinned () =
  List.iter
    (fun (name, cfg) ->
      let r =
        Time_protection.Verify.run ~seeds:[ 0 ] ~secrets:[ 0; 1; 2 ] ~cfg ()
      in
      Alcotest.(check string)
        (name ^ ": verify report")
        (Test_supervisor.read_file
           ("fixtures/verify_" ^ file_safe name ^ ".txt"))
        (Format.asprintf "%a" Time_protection.Verify.pp_report r))
    Presets.known

(* The lemma-verdict JSON for every preset, byte for byte: its lemma
   details carry the sweeps' boundary counts and first-divergence
   steps, which the verify report folds into one unwinding line. *)
let test_prove_json_pinned () =
  Tpro_engine.Supervisor.with_supervisor ~domains:1 (fun sup ->
      let o =
        Prove.run ~sup ~exhaustive:false ~seeds:[ 0 ] ~secrets:[ 0; 1; 2 ]
          ~presets:Presets.known ()
      in
      Alcotest.(check string) "prove --json over every preset"
        (Test_supervisor.read_file "fixtures/prove_known.json")
        (Prove.to_json o.Prove.reports))

(* --- a Neither-resource registration must be loud ------------------ *)

(* Register a bandwidth-shared gadget with no defence on the scenario's
   machine — purely through the public registry, zero security-model
   edits — and demand the composed theorem refuse to hold until the
   gadget is explicitly acknowledged. *)
let build_with_gadget ~seed ~secret =
  let run = Ni_scenario.build ~cfg:Presets.full ~seed ~secret in
  let m = Tpro_kernel.Kernel.machine run.Nonint.kernel in
  Machine.register_shared_resource m
    (Resource.make ~name:"dma gadget" ~classification:Resource.Neither
       ~digest:(fun () -> 0L)
       ~flush:(fun () -> Resource.no_flush)
       ());
  run

let test_neither_needs_acknowledgement () =
  let evidence =
    List.map
      (fun seed ->
        Theorem.collect ~seed ~build:(build_with_gadget ~seed)
          ~secrets:smoke_secrets ())
      smoke_seeds
  in
  let derive ?acknowledge () =
    (Theorem.derive ?acknowledge ~run:(build_with_gadget ~seed:0 ~secret:0)
       ~evidence ())
      .Theorem.theorem
  in
  let t = derive () in
  Alcotest.(check bool) "unacknowledged gadget sinks the theorem" false
    t.Theorem.holds;
  Alcotest.(check bool) "gadget is named" true
    (List.mem "dma gadget" t.Theorem.unacknowledged);
  Alcotest.(check bool) "nothing is refuted (it is a scope failure)" true
    (t.Theorem.refuted = []);
  let t = derive ~acknowledge:[ "dma gadget"; "memory interconnect" ] () in
  Alcotest.(check bool) "acknowledged gadget restores the theorem" true
    t.Theorem.holds;
  Alcotest.(check bool) "scope lemma still present" true
    (List.exists (fun l -> l.Lemma.lid = "scope:dma gadget") t.Theorem.lemmas)

(* --- per-kind exhaustive universes --------------------------------- *)

let test_kind_universes () =
  let machine =
    Machine.create (Ni_scenario.machine_config_with ~with_btb:true ~seed:0)
  in
  let kus = Exhaustive.kind_universes ~machine () in
  let labels = List.map (fun k -> k.Exhaustive.ku_label) kus in
  Alcotest.(check (list string))
    "kinds with universes, registry order"
    [ "cache"; "tlb"; "predictor"; "prefetcher" ]
    labels;
  let by_label l = List.find (fun k -> k.Exhaustive.ku_label = l) kus in
  Alcotest.(check (list string))
    "predictor universe covers bpred and btb"
    [ "branch predictor"; "branch target buffer" ]
    (by_label "predictor").Exhaustive.ku_resources;
  Alcotest.(check (list string))
    "cache universe covers every cache" [ "l1i0"; "l1d0"; "llc" ]
    (by_label "cache").Exhaustive.ku_resources;
  (* the interconnect (Neither) has no universe *)
  Alcotest.(check bool) "no interconnect universe" true
    (not (List.exists (fun k -> k.Exhaustive.ku_label = "interconnect") kus));
  List.iter
    (fun ku ->
      Alcotest.(check bool)
        (ku.Exhaustive.ku_label ^ " universe is non-trivial")
        true
        (Exhaustive.universe_size ku.Exhaustive.ku_universe > 1))
    kus

(* --- Prove.run end to end ------------------------------------------ *)

let test_prove_run () =
  Tpro_engine.Supervisor.with_supervisor ~domains:2 (fun sup ->
      let o =
        Prove.run ~sup ~acknowledge:[ "memory interconnect" ]
          ~seeds:smoke_seeds ~secrets:smoke_secrets
          ~presets:[ ("full", Presets.full); ("none", Presets.none) ]
          ()
      in
      match o.Prove.reports with
      | [ full; none ] ->
        Alcotest.(check string) "report order" "full" full.Prove.preset;
        Alcotest.(check bool) "full holds" true full.Prove.theorem.Theorem.holds;
        Alcotest.(check bool) "none refuted" true
          (none.Prove.theorem.Theorem.refuted <> []);
        Alcotest.(check bool) "no lost tasks" true
          (full.Prove.lost = [] && none.Prove.lost = []);
        (* every registered resource auto-derives a lemma, BTB included *)
        let lids =
          List.map (fun l -> l.Lemma.lid) full.Prove.theorem.Theorem.lemmas
        in
        List.iter
          (fun lid ->
            Alcotest.(check bool) (lid ^ " derived") true (List.mem lid lids))
          [
            "flush:l1i0"; "flush:l1d0"; "flush:TLB"; "flush:branch predictor";
            "flush:prefetcher"; "flush:branch target buffer"; "partition:llc";
            "scope:memory interconnect"; "kernel:user-step"; "kernel:trap";
            "kernel:padded-switch"; "kernel:noninterference";
            "kernel:invariants"; "exhaustive:cache"; "exhaustive:tlb";
            "exhaustive:predictor"; "exhaustive:prefetcher";
          ];
        (* the JSON artifact mentions every preset and is non-empty *)
        let json = Prove.to_json o.Prove.reports in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("json mentions " ^ needle) true
              (contains json needle))
          [ "\"preset\": \"full\""; "\"preset\": \"none\""; "flush:l1d0" ]
      | l -> Alcotest.failf "expected 2 reports, got %d" (List.length l))

(* --- a preset whose every seed is lost -------------------------------- *)

(* Task 0 (full, seed 0) raises on every attempt, so [full] has no
   evidence at all.  It must get no theorem — composing from nothing
   would read HOLDS — and its lost task must be returned; [none], with
   its evidence intact, is still composed and refuted. *)
let test_preset_with_every_seed_lost () =
  Tpro_engine.Supervisor.with_supervisor ~domains:1 ~retries:0
    ~fault:(Tpro_engine.Supervisor.Raise_always { key = 0 })
    (fun sup ->
      let o =
        Prove.run ~sup ~exhaustive:false ~seeds:[ 0 ] ~secrets:smoke_secrets
          ~presets:[ ("full", Presets.full); ("none", Presets.none) ]
          ()
      in
      Alcotest.(check (list string))
        "only the preset with evidence is composed" [ "none" ]
        (List.map (fun r -> r.Prove.preset) o.Prove.reports);
      Alcotest.(check (list (pair string (list int))))
        "full is returned unproved, with its lost task"
        [ ("full", [ 0 ]) ]
        (List.map (fun (name, lost) -> (name, List.map fst lost)) o.Prove.unproved);
      List.iter
        (fun r ->
          Alcotest.(check bool) "none refuted" true
            (r.Prove.theorem.Theorem.refuted <> []))
        o.Prove.reports;
      let json = Prove.to_json o.Prove.reports in
      Alcotest.(check bool) "json gives full no verdict" false
        (contains json "\"preset\": \"full\"");
      Alcotest.(check bool) "json still reports none" true
        (contains json "\"preset\": \"none\""))

(* --- partial checkpoint resume ------------------------------------- *)

(* Simulate a crash after the first task: truncate a finished
   checkpoint to its first task line and resume — the surviving task is
   reused (resumed_tasks = 1), the rest recollects, and the composed
   reports are identical to the uninterrupted run's. *)
let test_partial_resume () =
  let ckpt = Filename.temp_file "tpro-prove-ck" ".txt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists ckpt then Sys.remove ckpt)
    (fun () ->
      let presets = [ ("full", Presets.full); ("none", Presets.none) ] in
      let run_campaign ~resume =
        Tpro_engine.Supervisor.with_supervisor ~domains:1 (fun sup ->
            Prove.run ~sup ~checkpoint:ckpt ~resume
              ~acknowledge:[ "memory interconnect" ] ~seeds:smoke_seeds
              ~secrets:smoke_secrets ~presets ())
      in
      let reference = run_campaign ~resume:false in
      Test_supervisor.cut_after_first_task ckpt;
      let resumed = run_campaign ~resume:true in
      Alcotest.(check int) "one task survived the crash" 1
        resumed.Prove.resumed_tasks;
      List.iter2
        (fun (a : Prove.report) (b : Prove.report) ->
          Alcotest.(check string) "same preset" a.Prove.preset b.Prove.preset;
          Alcotest.(check string) "bit-identical theorem rendering"
            (Format.asprintf "%a" Prove.pp_report a)
            (Format.asprintf "%a" Prove.pp_report b))
        reference.Prove.reports resumed.Prove.reports)

let suite =
  [
    Alcotest.test_case "compose: conjunction semantics" `Quick
      test_compose_semantics;
    Alcotest.test_case "evidence serialisation round-trips" `Quick
      test_evidence_roundtrip;
    Alcotest.test_case "collect builds each secret once" `Quick
      test_collect_builds_each_secret_once;
    Alcotest.test_case "verify consumes the composed theorem" `Quick
      test_verify_carries_theorem;
    Alcotest.test_case "verify report is pinned" `Quick
      test_verify_report_pinned;
    Alcotest.test_case "Neither-resource needs acknowledgement" `Quick
      test_neither_needs_acknowledgement;
    Alcotest.test_case "per-kind exhaustive universes" `Quick
      test_kind_universes;
    Alcotest.test_case "Prove.run derives every lemma" `Quick test_prove_run;
    Alcotest.test_case "a preset with every seed lost gets no theorem" `Quick
      test_preset_with_every_seed_lost;
    Alcotest.test_case "partial checkpoint resume recomposes identically"
      `Quick test_partial_resume;
    Alcotest.test_case "prove JSON is pinned" `Quick test_prove_json_pinned;
  ]
