(* The supervision layer's own guarantees, proved through the
   engine-level fault-injection matrix: every injected fault (task
   raises once/always, task hangs past its fuel budget, duplicate
   submission, torn checkpoint write, worker-spawn failure) must be
   detected and reported — never silently absorbed — and the recovery
   paths (retry, degrade-to-sequential, restart-from-scratch) must
   leave campaign output bit-identical to a run that never faulted. *)

open Tpro_engine

let sq ~fuel:_ x = (x * x) + 1

let results_testable =
  Alcotest.(list (result int (testable (Fmt.of_to_string Supervisor.task_error_to_string) ( = ))))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_tmp f =
  let path = Filename.temp_file "tpro-sup" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Basic supervised fan-out                                            *)

let test_run_basic () =
  Supervisor.with_supervisor ~domains:3 (fun sup ->
      let xs = List.init 50 Fun.id in
      let got = Supervisor.run sup ~key:Fun.id sq xs in
      Alcotest.check results_testable "all ok, input order"
        (List.map (fun x -> Ok ((x * x) + 1)) xs)
        got;
      let s = Supervisor.summary sup in
      Alcotest.(check int) "total" 50 s.Supervisor.total;
      Alcotest.(check int) "ok" 50 s.Supervisor.ok;
      Alcotest.(check int) "failed" 0 s.Supervisor.failed;
      Alcotest.(check bool) "not degraded" false s.Supervisor.degraded)

let test_sequential_matches_parallel () =
  let xs = List.init 40 Fun.id in
  let seq =
    Supervisor.with_supervisor ~domains:1 (fun sup ->
        Supervisor.run sup ~key:Fun.id sq xs)
  in
  let par =
    Supervisor.with_supervisor ~domains:4 (fun sup ->
        Supervisor.run sup ~key:Fun.id sq xs)
  in
  Alcotest.check results_testable "sequential == parallel" seq par

(* ------------------------------------------------------------------ *)
(* Fault matrix                                                        *)

let test_fault_raise_once_retried () =
  let xs = List.init 10 Fun.id in
  let clean =
    Supervisor.with_supervisor ~domains:2 (fun sup ->
        Supervisor.run sup ~key:Fun.id sq xs)
  in
  Supervisor.with_supervisor ~domains:2
    ~fault:(Supervisor.Raise_once { key = 3 })
    (fun sup ->
      let got = Supervisor.run sup ~key:Fun.id sq xs in
      Alcotest.check results_testable
        "retried result bit-identical to a faultless run" clean got;
      let s = Supervisor.summary sup in
      Alcotest.(check int) "exactly one task retried" 1 s.Supervisor.retried;
      Alcotest.(check int) "nothing failed" 0 s.Supervisor.failed;
      Alcotest.(check bool) "the absorbed fault left a warning" true
        (s.Supervisor.warnings <> []))

let test_fault_raise_always_settles () =
  Supervisor.with_supervisor ~domains:2 ~retries:2
    ~fault:(Supervisor.Raise_always { key = 1 })
    (fun sup ->
      let got = Supervisor.run sup ~key:Fun.id sq [ 0; 1; 2 ] in
      (match got with
      | [ Ok 1; Error (Supervisor.Task_raised r); Ok 5 ] ->
        Alcotest.(check int) "all attempts used" 3 r.attempts;
        Alcotest.(check int) "error names the key" 1 r.key
      | _ -> Alcotest.fail "expected exactly task 1 to fail, others ok");
      let s = Supervisor.summary sup in
      Alcotest.(check int) "one failure tallied" 1 s.Supervisor.failed;
      Alcotest.(check int) "others ok" 2 s.Supervisor.ok;
      Alcotest.(check bool) "failure reported in warnings" true
        (s.Supervisor.warnings <> []))

let test_fault_hang_tripped_by_watchdog () =
  Supervisor.with_supervisor ~domains:2 ~fuel:500
    ~fault:(Supervisor.Hang { key = 2 })
    (fun sup ->
      let got = Supervisor.run sup ~key:Fun.id sq [ 0; 1; 2; 3 ] in
      match got with
      | [ Ok _; Ok _; Error (Supervisor.Fuel_exhausted e); Ok _ ] ->
        Alcotest.(check int) "budget reported" 500 e.budget;
        Alcotest.(check int) "key reported" 2 e.key
      | _ -> Alcotest.fail "expected the hanging task to exhaust its fuel")

let test_fault_duplicate_submission () =
  Supervisor.with_supervisor ~domains:2
    ~fault:(Supervisor.Duplicate { key = 1 })
    (fun sup ->
      let got = Supervisor.run sup ~key:Fun.id sq [ 0; 1; 2 ] in
      Alcotest.check results_testable "real tasks unaffected"
        [ Ok 1; Ok 2; Ok 5 ] got;
      let s = Supervisor.summary sup in
      Alcotest.(check int) "duplicate detected" 1 s.Supervisor.duplicates;
      Alcotest.(check bool) "duplicate reported" true
        (s.Supervisor.warnings <> []))

let test_genuine_duplicate_keys_rejected () =
  Supervisor.with_supervisor ~domains:2 (fun sup ->
      let got =
        Supervisor.run sup ~key:(fun x -> x mod 3) sq [ 0; 1; 2; 3; 4; 5 ]
      in
      match got with
      | [ Ok 1; Ok 2; Ok 5; Error (Supervisor.Duplicate_submission a);
          Error (Supervisor.Duplicate_submission b);
          Error (Supervisor.Duplicate_submission c) ] ->
        Alcotest.(check (list int))
          "rejections name the colliding keys" [ 0; 1; 2 ]
          [ a.key; b.key; c.key ]
      | _ ->
        Alcotest.fail
          "first occurrence of each key must run; later ones must be rejected")

let test_fault_spawn_failure_degrades () =
  let xs = List.init 20 Fun.id in
  let clean =
    Supervisor.with_supervisor ~domains:1 (fun sup ->
        Supervisor.run sup ~key:Fun.id sq xs)
  in
  Supervisor.with_supervisor ~domains:4 ~fault:Supervisor.Spawn_failure
    (fun sup ->
      Alcotest.(check bool) "degraded to sequential" true
        (Supervisor.degraded sup);
      Alcotest.(check bool) "no pool in degraded mode" true
        (Supervisor.pool sup = None);
      let got = Supervisor.run sup ~key:Fun.id sq xs in
      Alcotest.check results_testable
        "degraded run returns the same results" clean got;
      let s = Supervisor.summary sup in
      Alcotest.(check bool) "summary flags degradation" true
        s.Supervisor.degraded;
      Alcotest.(check bool) "degradation carries a warning" true
        (List.exists
           (fun w ->
             let has_sub needle hay =
               let lh = String.length hay and ln = String.length needle in
               let rec go i =
                 i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
               in
               go 0
             in
             has_sub "sequential" w)
           s.Supervisor.warnings))

(* Retry backoff is a pure, capped exponential schedule; enabling it
   spaces attempts out but must not change a single output byte. *)
let test_backoff_schedule_pinned () =
  let d = Supervisor.backoff_delay ~base:0.05 ~cap:1.0 in
  Alcotest.(check (list (float 1e-9)))
    "capped exponential doubling"
    [ 0.05; 0.1; 0.2; 0.4; 0.8; 1.0; 1.0 ]
    (List.map d [ 1; 2; 3; 4; 5; 6; 7 ]);
  Alcotest.(check (float 1e-9)) "attempt 0 clamps to base" 0.05 (d 0)

let test_backoff_results_bit_identical () =
  let xs = List.init 10 Fun.id in
  let run ?backoff () =
    Supervisor.with_supervisor ~domains:2 ?backoff
      ~fault:(Supervisor.Raise_once { key = 4 })
      (fun sup ->
        let got = Supervisor.run sup ~key:Fun.id sq xs in
        (got, Supervisor.summary sup))
  in
  let plain, s_plain = run () in
  let backed, s_backed = run ~backoff:(0.001, 0.004) () in
  Alcotest.check results_testable
    "retried-with-backoff results bit-identical to no-backoff" plain backed;
  Alcotest.(check int) "both runs retried exactly once" s_plain.Supervisor.retried
    s_backed.Supervisor.retried;
  Alcotest.(check int) "one retry" 1 s_backed.Supervisor.retried

(* Satellite: the watchdog must also trip on a calibrated-sequential
   host (1-core container), where no worker domain exists and the hang
   burns fuel in the calling domain. *)
let test_hang_tripped_on_one_core_host () =
  let seq_host =
    {
      Calibrate.cores_detected = 1;
      recommended = 1;
      minor_heap_words = Calibrate.default_minor_heap_words;
      parallel_efficiency = 1.0;
      probe_note = "forced sequential for the 1-core watchdog test";
    }
  in
  Calibrate.with_override seq_host (fun () ->
      Supervisor.with_supervisor ~fuel:300
        ~fault:(Supervisor.Hang { key = 1 })
        (fun sup ->
          Alcotest.(check bool) "calibrated-sequential: no pool" true
            (Supervisor.pool sup = None);
          Alcotest.(check bool) "sequential is not degradation" false
            (Supervisor.degraded sup);
          let got = Supervisor.run sup ~key:Fun.id sq [ 0; 1; 2 ] in
          match got with
          | [ Ok 1; Error (Supervisor.Fuel_exhausted e); Ok 5 ] ->
            Alcotest.(check int) "budget reported" 300 e.budget;
            Alcotest.(check int) "key reported" 1 e.key
          | _ ->
            Alcotest.fail
              "the hanging task must exhaust its fuel on a 1-core host"))

let test_fuel_budget_enforced () =
  Supervisor.with_supervisor ~domains:1 ~fuel:10 (fun sup ->
      let burn ~fuel x =
        Supervisor.Fuel.burn ~amount:x fuel;
        x
      in
      match Supervisor.run sup ~key:Fun.id burn [ 5; 20 ] with
      | [ Ok 5; Error (Supervisor.Fuel_exhausted _) ] -> ()
      | _ -> Alcotest.fail "only the over-budget task may be cut off")

(* ------------------------------------------------------------------ *)
(* Checkpoint file integrity                                           *)

let payload = "kind test\nline two\ttabbed\nthird \\ line\n"

let check_load_error name path expect_pred =
  match Checkpoint.load ~path with
  | Ok _ -> Alcotest.failf "%s: damaged checkpoint loaded successfully" name
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: rejected as %s" name (Checkpoint.error_to_string e))
      true (expect_pred e)

let test_checkpoint_roundtrip () =
  with_tmp (fun path ->
      Checkpoint.save ~path payload;
      match Checkpoint.load ~path with
      | Ok p -> Alcotest.(check string) "payload round-trips" payload p
      | Error e ->
        Alcotest.failf "load failed: %s" (Checkpoint.error_to_string e));
  match Checkpoint.load ~path:"/nonexistent/tpro-checkpoint" with
  | Error (Checkpoint.Io _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "missing checkpoint must be an Io error"

let test_checkpoint_truncated () =
  with_tmp (fun path ->
      Checkpoint.save ~path payload;
      let raw = read_file path in
      write_file path (String.sub raw 0 (String.length raw - 4));
      check_load_error "truncated" path (function
        | Checkpoint.Truncated _ -> true
        | _ -> false))

let test_checkpoint_bad_crc () =
  with_tmp (fun path ->
      Checkpoint.save ~path payload;
      let raw = read_file path in
      let b = Bytes.of_string raw in
      let last = Bytes.length b - 2 in
      Bytes.set b last (if Bytes.get b last = 'x' then 'y' else 'x');
      write_file path (Bytes.to_string b);
      check_load_error "flipped byte" path (function
        | Checkpoint.Bad_crc _ -> true
        | _ -> false))

let test_checkpoint_stale_version () =
  with_tmp (fun path ->
      Checkpoint.save ~path payload;
      let raw = read_file path in
      let nl = String.index raw '\n' in
      let rest = String.sub raw nl (String.length raw - nl) in
      write_file path ("tpro-checkpoint 99" ^ rest);
      check_load_error "stale version" path (function
        | Checkpoint.Bad_version 99 -> true
        | _ -> false))

let test_checkpoint_bad_magic () =
  with_tmp (fun path ->
      write_file path "utter nonsense\n";
      check_load_error "bad magic" path (function
        | Checkpoint.Bad_magic -> true
        | _ -> false))

let test_fault_torn_checkpoint_rejected () =
  with_tmp (fun path ->
      Supervisor.with_supervisor ~domains:1
        ~fault:Supervisor.Torn_checkpoint (fun sup ->
          Supervisor.checkpoint_save sup ~path payload);
      check_load_error "torn write" path (function
        | Checkpoint.Truncated _ | Checkpoint.Bad_crc _ -> true
        | _ -> false))

let test_escape_roundtrip () =
  List.iter
    (fun s ->
      match Checkpoint.unescape (Checkpoint.escape s) with
      | Some s' -> Alcotest.(check string) "escape round-trip" s s'
      | None -> Alcotest.failf "escape produced malformed output for %S" s)
    [ ""; "plain"; "tab\there"; "new\nline"; "back\\slash"; "\\n\t\n\\" ];
  Alcotest.(check bool) "dangling escape rejected" true
    (Checkpoint.unescape "broken\\" = None);
  Alcotest.(check bool) "unknown escape rejected" true
    (Checkpoint.unescape "\\q" = None)

(* ------------------------------------------------------------------ *)
(* Table serialisation (the experiment sweep's checkpoint form)        *)

let test_table_serialise_roundtrip () =
  let nasty =
    {
      Time_protection.Table.id = "E99";
      title = "cells with\ttabs and\nnewlines";
      anchor = "Sect. \\ 0";
      headers = [ "a\tb"; "c" ];
      rows = [ [ "1\n2"; "3\\4" ]; [ ""; "tab\there" ] ];
      note = "round\ntrip";
    }
  in
  List.iter
    (fun t ->
      match Time_protection.Table.deserialise
              (Time_protection.Table.serialise t)
      with
      | Ok t' ->
        Alcotest.(check bool) "table round-trips exactly" true (t = t')
      | Error e -> Alcotest.failf "deserialise failed: %s" e)
    [ nasty; Time_protection.Experiments.e10_colours () ]

(* ------------------------------------------------------------------ *)
(* The campaign loop, once per kind.  Fuzz trials, topologies, theorem
   evidence and experiment tables all checkpoint and resume through
   [Campaign.run], so every property below is checked on all four.     *)

type run = {
  report : string;  (** the deterministic report, rendered *)
  resumed : int;
  notes : string list;
  lost : int list;  (** keys the supervisor settled as errors *)
}

type kind = {
  name : string;
  tasks : int;
  go :
    ?fault:Supervisor.fault ->
    ?checkpoint:string ->
    ?resume:bool ->
    ?other:bool ->
    unit ->
    run;
      (** [~other:true] pins different campaign parameters *)
  legacy : string;  (** a payload the per-kind formats used to write *)
}

let supervised ?(fault = Supervisor.No_fault) f =
  Supervisor.with_supervisor ~domains:2 ~retries:0 ~fault f

let render pp xs = String.concat "\n---\n" (List.map (Format.asprintf "%a" pp) xs)

let fuzz_kind =
  let open Tpro_fuzz.Driver in
  {
    name = "fuzz";
    tasks = 2;
    go =
      (fun ?fault ?checkpoint ?resume ?(other = false) () ->
        supervised ?fault (fun sup ->
            let c =
              campaign ~sup ~mutant:Tpro_fuzz.Scenario.Skip_flush ?checkpoint
                ?resume ~checkpoint_every:1
                ~seed:(if other then 6 else 0)
                ~trials:2 ()
            in
            {
              report = render pp_failure c.failures;
              resumed = c.resumed_from;
              notes = c.notes;
              lost = List.map (fun f -> f.trial) c.task_failures;
            }));
    legacy = "kind fuzz\nseed 0\nmutant skip-flush\ndone 1\nfail 0\n";
  }

let topo_kind =
  let open Tpro_fuzz.Driver in
  {
    name = "topo";
    tasks = 4;
    go =
      (fun ?fault ?checkpoint ?resume ?(other = false) () ->
        supervised ?fault (fun sup ->
            let c =
              topo_campaign ~sup ~mutant:Tpro_fuzz.Scenario.Drop_padding
                ?checkpoint ?resume ~checkpoint_every:2 ~max_domains:3
                ~max_cores:2
                ~seed:(if other then 43 else 42)
                ~trials:4 ()
            in
            {
              report = render pp_topo_failure c.topo_failures;
              resumed = c.topo_resumed_from;
              notes = c.topo_notes;
              lost = List.map (fun f -> f.trial) c.topo_task_failures;
            }));
    legacy = "kind topo\nseed 42\nmutant drop-padding\ndomains 3\ncores 2\ndone 2\n";
  }

let prove_kind =
  let open Time_protection in
  {
    name = "prove";
    tasks = 2;
    go =
      (fun ?fault ?checkpoint ?resume ?(other = false) () ->
        supervised ?fault (fun sup ->
            let o =
              Prove.run ~sup ?checkpoint ?resume ~exhaustive:false
                ~acknowledge:[ "memory interconnect" ] ~seeds:[ 0; 1 ]
                ~secrets:(if other then [ 0; 2 ] else [ 0; 1 ])
                ~presets:[ ("full", Presets.full) ]
                ()
            in
            {
              report = Prove.to_json o.Prove.reports ^ render Prove.pp_report o.Prove.reports;
              resumed = o.Prove.resumed_tasks;
              notes = o.Prove.notes;
              lost = List.concat_map (fun r -> List.map fst r.Prove.lost) o.Prove.reports;
            }));
    legacy = "kind prove\nseeds 0,1\nsecrets 0,1\npresets full\n";
  }

let exp_kind =
  let open Time_protection in
  {
    name = "exp";
    tasks = 2;
    go =
      (fun ?fault ?checkpoint ?resume ?(other = false) () ->
        supervised ?fault (fun sup ->
            let sw =
              Experiments.run_supervised ~seeds:[ 0 ] ~sup ?checkpoint ?resume
                ~only:(if other then [ "e6"; "e20" ] else [ "e6"; "e17" ])
                ()
            in
            let tables = sw.Experiments.tables in
            {
              report =
                String.concat ""
                  (List.filter_map
                     (function _, Ok t -> Some (Table.to_string t) | _, Error _ -> None)
                     tables);
              resumed = sw.Experiments.sweep_resumed;
              notes = sw.Experiments.sweep_notes;
              lost =
                List.concat
                  (List.mapi (fun i (_, r) -> if Result.is_error r then [ i ] else []) tables);
            }));
    legacy = "kind exp\nseeds 0\n";
  }

let kinds = [ fuzz_kind; topo_kind; prove_kind; exp_kind ]

let has_sub needle hay =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let noted k run word =
  Alcotest.(check bool)
    (Printf.sprintf "%s: a note says %s" k.name word)
    true
    (List.exists (has_sub word) run.notes)

(* A kill right after the first batch: the snapshot keeps its header and
   first task line only. *)
let cut_after_first_task path =
  match Checkpoint.load ~path with
  | Error e -> Alcotest.failf "snapshot unreadable: %s" (Checkpoint.error_to_string e)
  | Ok text ->
    let rec keep = function
      | [] -> []
      | l :: rest ->
        if String.starts_with ~prefix:"task " l then [ l ] else l :: keep rest
    in
    Checkpoint.save ~path
      (String.concat "\n" (keep (String.split_on_char '\n' text)) ^ "\n")

let each_kind f =
  List.iter
    (fun k ->
      with_tmp (fun path ->
          Sys.remove path;
          f k path))
    kinds

let test_campaign_resume_bit_identical () =
  each_kind (fun k path ->
      let reference = k.go () in
      Alcotest.(check bool) (k.name ^ ": there is something to report (violations, tables)")
        true (reference.report <> "");
      let full = k.go ~checkpoint:path () in
      Alcotest.(check int) (k.name ^ ": the checkpointed run starts fresh") 0 full.resumed;
      Alcotest.(check string) (k.name ^ ": checkpointing changes nothing")
        reference.report full.report;
      cut_after_first_task path;
      let resumed = k.go ~checkpoint:path ~resume:true () in
      Alcotest.(check int) (k.name ^ ": one task restored") 1 resumed.resumed;
      noted k resumed "resumed";
      Alcotest.(check string) (k.name ^ ": resumed report byte-identical")
        reference.report resumed.report;
      let again = k.go ~checkpoint:path ~resume:true () in
      Alcotest.(check int) (k.name ^ ": a finished snapshot restores every task")
        k.tasks again.resumed;
      Alcotest.(check string) (k.name ^ ": and reports the same") reference.report
        again.report)

(* Damaged frames, frames holding another era's payload, and payloads
   whose task lines do not parse are all rejected with a note, and the
   restart reproduces the fresh run. *)
let test_campaign_corrupt_checkpoint_restarts () =
  each_kind (fun k path ->
      let reference = k.go () in
      List.iter
        (fun (what, damage) ->
          damage ();
          let r = k.go ~checkpoint:path ~resume:true () in
          Alcotest.(check int) (Printf.sprintf "%s, %s: fresh start" k.name what) 0
            r.resumed;
          noted k r "rejected";
          Alcotest.(check string)
            (Printf.sprintf "%s, %s: the restart reproduces the fresh run" k.name what)
            reference.report r.report)
        [
          ("garbage", fun () -> write_file path "this is not a checkpoint\n");
          ("legacy payload", fun () -> Checkpoint.save ~path k.legacy);
          ( "bad task line",
            fun () ->
              ignore (k.go ~checkpoint:path ());
              cut_after_first_task path;
              match Checkpoint.load ~path with
              | Ok text -> Checkpoint.save ~path (text ^ "task 0 \\q\n")
              | Error _ -> Alcotest.fail "snapshot unreadable" );
        ])

let test_campaign_missing_checkpoint_starts_fresh () =
  each_kind (fun k path ->
      let r = k.go ~checkpoint:path ~resume:true () in
      Alcotest.(check int) (k.name ^ ": no checkpoint means a fresh start") 0
        r.resumed;
      noted k r "no checkpoint";
      Alcotest.(check bool) (k.name ^ ": and the run writes one") true
        (Sys.file_exists path))

(* A checkpoint from a different campaign (other seed, secrets or
   selection) must be rejected, not resumed into wrong state. *)
let test_campaign_mismatched_checkpoint_rejected () =
  each_kind (fun k path ->
      let reference = k.go () in
      ignore (k.go ~checkpoint:path ~other:true ());
      let r = k.go ~checkpoint:path ~resume:true () in
      Alcotest.(check int) (k.name ^ ": different parameters restart from scratch") 0
        r.resumed;
      noted k r "rejected";
      Alcotest.(check string) (k.name ^ ": report unaffected") reference.report
        r.report)

(* A task lost to a supervised failure is never recorded, so a resumed
   campaign runs it again: with the fault still present it is reported
   lost again (the CLI exits 2 as the uninterrupted run would), and
   once the fault is gone the report is the clean run's. *)
let test_campaign_lost_task_rerun () =
  each_kind (fun k path ->
      let fault = Supervisor.Raise_always { key = 1 } in
      let clean = k.go () in
      let faulty = k.go ~fault () in
      Alcotest.(check (list int)) (k.name ^ ": uninterrupted run loses task 1") [ 1 ]
        faulty.lost;
      ignore (k.go ~fault ~checkpoint:path ());
      let resumed = k.go ~fault ~checkpoint:path ~resume:true () in
      Alcotest.(check int) (k.name ^ ": every other task restored") (k.tasks - 1)
        resumed.resumed;
      Alcotest.(check (list int)) (k.name ^ ": resumed run loses task 1 again") [ 1 ]
        resumed.lost;
      Alcotest.(check string) (k.name ^ ": same report as uninterrupted")
        faulty.report resumed.report;
      let healed = k.go ~checkpoint:path ~resume:true () in
      Alcotest.(check (list int)) (k.name ^ ": without the fault nothing is lost") []
        healed.lost;
      Alcotest.(check string) (k.name ^ ": and the report is the clean run's")
        clean.report healed.report)

(* The payload parser against byte-level damage inside a valid frame:
   every resume either restores a well-formed result set or rejects the
   snapshot with a note and starts fresh, and it never raises. *)
let squares =
  {
    Campaign.kind = "squares";
    params = [ ("base", "x y\\z") ];
    keys = [ 0; 1; 2; 3; 4; 5 ];
    execute = (fun ~fuel:_ k -> Printf.sprintf "sq\t%d \\ %d" k (k * k));
    codec =
      {
        encode = Fun.id;
        decode =
          (fun s ->
            if String.starts_with ~prefix:"sq\t" s then Ok s else Error "not a square");
      };
    batch = 2;
  }

let squares_payload =
  lazy
    (with_tmp (fun path ->
         Supervisor.with_supervisor ~domains:1 (fun sup ->
             ignore (Campaign.run ~sup ~checkpoint:path squares));
         match Checkpoint.load ~path with
         | Ok text -> text
         | Error _ -> failwith "squares snapshot unreadable"))

let mutate text (op, a, b) =
  let n = String.length text in
  let lines = String.split_on_char '\n' text in
  let nl = List.length lines in
  match op mod 5 with
  | 0 -> String.sub text 0 (a mod (n + 1))
  | 1 ->
    let i = a mod n in
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor (1 + (b mod 255))) else c)
      text
  | 2 ->
    (* splice: move line a to position b *)
    let l = List.nth lines (a mod nl) in
    let rest = List.filteri (fun j _ -> j <> a mod nl) lines in
    String.concat "\n"
      (List.concat (List.mapi (fun j x -> if j = b mod nl then [ l; x ] else [ x ]) rest))
  | 3 ->
    let i = a mod nl in
    String.concat "\n" (List.concat (List.mapi (fun j x -> if j = i then [ x; x ] else [ x ]) lines))
  | _ ->
    (* re-key one task line: out of range, negative or non-canonical *)
    let key = [| "6"; "-1"; "99999999999"; "01"; "0x2"; "2"; "" |].(b mod 7) in
    String.concat "\n"
      (List.mapi
         (fun j l ->
           if j = a mod nl && String.starts_with ~prefix:"task " l then
             match String.split_on_char ' ' l with
             | _ :: _ :: blob -> String.concat " " ("task" :: key :: blob)
             | _ -> l
           else l)
         lines)

let prop_campaign_payload_mutations =
  QCheck.Test.make ~name:"campaign: mutated payloads restore or reject" ~count:300
    QCheck.(triple small_nat small_nat small_nat)
    (fun m ->
      with_tmp (fun path ->
          Checkpoint.save ~path (mutate (Lazy.force squares_payload) m);
          let o =
            Supervisor.with_supervisor ~domains:1 (fun sup ->
                Campaign.run ~sup ~checkpoint:path ~resume:true squares)
          in
          let well_formed =
            List.map fst o.Campaign.results = squares.Campaign.keys
            && List.for_all
                 (function
                   | _, Ok r -> Result.is_ok (squares.Campaign.codec.decode r)
                   | _, Error _ -> false)
                 o.Campaign.results
          in
          let decided =
            match o.Campaign.notes with
            | [ n ] when has_sub "rejected" n -> o.Campaign.resumed = 0
            | [ n ] -> String.starts_with ~prefix:"resumed" n
            | _ -> false
          in
          well_formed && decided))

(* ------------------------------------------------------------------ *)
(* Supervised experiment sweep resume                                  *)

let test_sweep_resume_reuses_tables () =
  with_tmp (fun path ->
      Sys.remove path;
      let fresh =
        Supervisor.with_supervisor ~domains:1 (fun sup ->
            Time_protection.Experiments.run_supervised ~sup ~checkpoint:path
              ~only:[ "e10" ] ())
      in
      let resumed =
        Supervisor.with_supervisor ~domains:1 (fun sup ->
            Time_protection.Experiments.run_supervised ~sup ~checkpoint:path
              ~resume:true ~only:[ "e10" ] ())
      in
      Alcotest.(check int) "table reloaded, not recomputed" 1
        resumed.Time_protection.Experiments.sweep_resumed;
      match
        ( fresh.Time_protection.Experiments.tables,
          resumed.Time_protection.Experiments.tables )
      with
      | [ (_, Ok a) ], [ (_, Ok b) ] ->
        Alcotest.(check string) "re-rendered byte-identically"
          (Time_protection.Table.to_string a)
          (Time_protection.Table.to_string b);
        Alcotest.(check bool) "tables structurally equal" true (a = b)
      | _ -> Alcotest.fail "expected exactly one settled table per sweep")

let suite =
  [
    Alcotest.test_case "supervised fan-out: all ok, input order" `Quick
      test_run_basic;
    Alcotest.test_case "sequential == parallel" `Quick
      test_sequential_matches_parallel;
    Alcotest.test_case "fault: raise-once is retried bit-identically" `Quick
      test_fault_raise_once_retried;
    Alcotest.test_case "fault: raise-always settles as Task_raised" `Quick
      test_fault_raise_always_settles;
    Alcotest.test_case "fault: hang tripped by the fuel watchdog" `Quick
      test_fault_hang_tripped_by_watchdog;
    Alcotest.test_case "fault: duplicate submission detected" `Quick
      test_fault_duplicate_submission;
    Alcotest.test_case "genuine duplicate keys rejected" `Quick
      test_genuine_duplicate_keys_rejected;
    Alcotest.test_case "fault: spawn failure degrades to sequential" `Quick
      test_fault_spawn_failure_degrades;
    Alcotest.test_case "fuel budget enforced" `Quick test_fuel_budget_enforced;
    Alcotest.test_case "backoff: schedule pinned" `Quick
      test_backoff_schedule_pinned;
    Alcotest.test_case "backoff: retried results bit-identical" `Quick
      test_backoff_results_bit_identical;
    Alcotest.test_case "fault: hang tripped on a 1-core host" `Quick
      test_hang_tripped_on_one_core_host;
    Alcotest.test_case "checkpoint round-trip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint: truncation rejected" `Quick
      test_checkpoint_truncated;
    Alcotest.test_case "checkpoint: bad CRC rejected" `Quick
      test_checkpoint_bad_crc;
    Alcotest.test_case "checkpoint: stale version rejected" `Quick
      test_checkpoint_stale_version;
    Alcotest.test_case "checkpoint: bad magic rejected" `Quick
      test_checkpoint_bad_magic;
    Alcotest.test_case "fault: torn checkpoint write rejected on load" `Quick
      test_fault_torn_checkpoint_rejected;
    Alcotest.test_case "escape/unescape round-trip" `Quick
      test_escape_roundtrip;
    Alcotest.test_case "table serialise/deserialise exact round-trip" `Quick
      test_table_serialise_roundtrip;
    Alcotest.test_case "campaign: resume is bit-identical" `Quick
      test_campaign_resume_bit_identical;
    Alcotest.test_case "campaign: corrupt checkpoint restarts cleanly" `Quick
      test_campaign_corrupt_checkpoint_restarts;
    Alcotest.test_case "campaign: missing checkpoint starts fresh" `Quick
      test_campaign_missing_checkpoint_starts_fresh;
    Alcotest.test_case "campaign: mismatched checkpoint rejected" `Quick
      test_campaign_mismatched_checkpoint_rejected;
    Alcotest.test_case "campaign: lost task is re-run on resume" `Quick
      test_campaign_lost_task_rerun;
    QCheck_alcotest.to_alcotest prop_campaign_payload_mutations;
    Alcotest.test_case "sweep: resume reloads tables byte-identically" `Quick
      test_sweep_resume_reuses_tables;
  ]
