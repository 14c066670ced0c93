(* Exercise the installed `tpro` binary end-to-end: cmdliner parse
   errors must exit 124, operational failures (oracle violation, bad
   replay file) exit 1, and a clean seeded fuzz run exits 0 after
   writing nothing.  The test runs from _build/default/test, so the
   executable lives one directory up. *)

let tpro = Filename.concat (Filename.concat ".." "bin") "tpro.exe"

let run ?stdout args =
  let stdout = match stdout with Some f -> f | None -> Filename.null in
  Sys.command
    (Filename.quote_command tpro ~stdout ~stderr:Filename.null args)

let check_exit msg expected args =
  Alcotest.(check int) msg expected (run args)

let test_parse_errors () =
  check_exit "unknown subcommand" 124 [ "frobnicate" ];
  check_exit "bad -j" 124 [ "fuzz"; "-j"; "nope" ];
  check_exit "bad --mutant" 124 [ "fuzz"; "--mutant"; "wat" ];
  check_exit "bad --trials" 124 [ "fuzz"; "--trials"; "xyz" ]

let test_clean_fuzz_run () =
  check_exit "small clean run exits 0" 0
    [ "fuzz"; "--trials"; "8"; "--seed"; "5"; "-j"; "1" ];
  check_exit "explicit fan-out exits 0" 0
    [ "fuzz"; "--trials"; "8"; "--seed"; "5"; "-j"; "2" ]

let test_mutant_run_and_replay () =
  let out = Filename.temp_file "tpro-cli-cex" ".txt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists out then Sys.remove out)
    (fun () ->
      check_exit "mutant run exits 1" 1
        [
          "fuzz"; "--trials"; "3"; "--seed"; "42"; "--mutant"; "drop-padding";
          "-j"; "1"; "--out"; out;
        ];
      Alcotest.(check bool) "counterexample file written" true
        (Sys.file_exists out);
      (match Tpro_fuzz.Replay.load out with
      | Ok (Tpro_fuzz.Replay.Scenario s) ->
        Alcotest.(check bool) "saved scenario carries the mutant" true
          (s.Tpro_fuzz.Scenario.mutant = Tpro_fuzz.Scenario.Drop_padding)
      | Ok (Tpro_fuzz.Replay.Topology _) ->
        Alcotest.fail "fuzz counterexample parsed as a topology"
      | Error e ->
        Alcotest.failf "counterexample unreadable: %s"
          (Tpro_fuzz.Replay.load_error_to_string e));
      check_exit "replaying the counterexample exits 1" 1
        [ "fuzz"; "--replay"; out ])

let test_replay_missing_file () =
  check_exit "missing replay file exits 1" 1
    [ "fuzz"; "--replay"; "/nonexistent/replay-file" ]

(* A replay file that exists but does not parse is a usage error: the
   CLI must exit 124 (cmdliner's convention) naming the offending
   line, not 1 and not an uncaught exception. *)
let test_replay_malformed_file () =
  let path = Filename.temp_file "tpro-cli-bad" ".txt" in
  let scenario =
    Tpro_fuzz.(
      Replay.to_string
        (Replay.Scenario
           { (Scenario.generate ~seed:42 0) with oracle = Scenario.Capacity }))
  and topology =
    Tpro_fuzz.(
      Replay.to_string
        (Replay.Topology
           (Topology.generate ~seed:42 ~mutant:Scenario.Skip_flush 0)))
  in
  let edit text key replacement =
    Test_fuzz.with_line text ~line:(Test_fuzz.line_of text key) replacement
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iter
        (fun (name, text) ->
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          check_exit (name ^ ": malformed replay file exits 124") 124
            [ "fuzz"; "--replay"; path ])
        [
          ("unknown key", "seed 1\ntrials nope\n");
          ("preset -1", edit scenario "preset" "preset -1");
          ("channel -1", edit scenario "channel" "channel -1");
          ("dom with 0 colours", edit topology "dom" "dom 0 0 2 0 7 3000");
          ("dom with 0 pages", edit topology "dom" "dom 0 1 0 0 7 3000");
          ("dom with slice 0", edit topology "dom" "dom 0 1 2 0 7 0");
          ("skip_idx -1", edit topology "skip_idx" "skip_idx -1");
          (* parsed once, then crashed the trial or starved a domain *)
          ("pad_extra -100000", edit scenario "pad_extra" "pad_extra -100000");
          ("slice 2^62-1", edit scenario "slice" "slice 4611686018427387903");
          ("hi_len 10000000", edit scenario "hi_len" "hi_len 10000000");
          ("lo_lines 100000", edit scenario "lo_lines" "lo_lines 100000");
          ( "topology pad_extra -50000",
            edit topology "pad_extra" "pad_extra -50000" );
          ( "n_cores 2^62-1",
            edit topology "n_cores" "n_cores 4611686018427387903" );
          ("dom with 15 colours", edit topology "dom" "dom 0 15 4 3 7 6500");
          ("dom with 5000 pages", edit topology "dom" "dom 0 2 5000 3 7 6500");
          ("sched repeating a domain", edit topology "sched" "sched 0 0 0");
        ])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_files n f =
  let files = List.init n (fun _ -> Filename.temp_file "tpro-cli" ".txt") in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) files)
    (fun () -> f files)

(* Kill-free version of CI's kill-and-resume job, for every campaign
   front-end at -j 1 and -j 2: checkpointing changes nothing on stdout,
   and a run resumed from a snapshot cut after its first task prints
   stdout byte-identical to an uninterrupted run. *)
let test_checkpoint_resume_identical () =
  List.iter
    (fun (args, every) ->
      List.iter
        (fun j ->
          with_files 3 (function
            | [ ckpt; ref_out; res_out ] ->
              Sys.remove ckpt;
              let args = args @ [ "-j"; j ] in
              let what = String.concat " " args in
              let code = run ~stdout:ref_out args in
              Alcotest.(check int) (what ^ ": checkpointed run exits alike") code
                (run ~stdout:res_out (args @ [ "--checkpoint"; ckpt ] @ every));
              Alcotest.(check string) (what ^ ": checkpointed stdout identical")
                (read_file ref_out) (read_file res_out);
              Test_supervisor.cut_after_first_task ckpt;
              Alcotest.(check int) (what ^ ": resumed run exits alike") code
                (run ~stdout:res_out (args @ [ "--resume"; ckpt ] @ every));
              Alcotest.(check string) (what ^ ": resumed stdout is byte-identical")
                (read_file ref_out) (read_file res_out)
            | _ -> assert false))
        [ "1"; "2" ])
    [
      ([ "fuzz"; "--trials"; "24"; "--seed"; "5" ], [ "--checkpoint-every"; "6" ]);
      ( [ "topo"; "--trials"; "6"; "--seed"; "5"; "--domains"; "3"; "--cores"; "2" ],
        [ "--checkpoint-every"; "2" ] );
      ( [ "prove"; "--smoke"; "--seeds"; "0,1"; "--acknowledge"; "memory interconnect" ],
        [] );
      ([ "exp"; "e6"; "--seeds"; "0" ], []);
      ([ "exp"; "e18"; "--seeds"; "5" ], []);
    ]

(* `tpro prove` exit semantics: 0 when every lemma is proved and scope
   is acknowledged, 1 when a lemma is refuted, 2 when an out-of-scope
   registration is unacknowledged. *)
let smoke = [ "prove"; "--smoke"; "-j"; "2" ]
let ack = [ "--acknowledge"; "memory interconnect" ]

let test_prove_exit_codes () =
  check_exit "full + acknowledge exits 0" 0 (smoke @ ack);
  check_exit "unacknowledged scope exits 2" 2 smoke;
  check_exit "refuted preset exits 1" 1 (smoke @ ack @ [ "--preset"; "none" ]);
  check_exit "unknown preset exits 1" 1 (smoke @ [ "--preset"; "wat" ]);
  check_exit "bad --seeds exits 124" 124 [ "prove"; "--seeds"; "x" ];
  (* Fewer than two distinct secrets compare no pair of runs, so every
     verdict would be vacuous: a usage error, reported in one line before
     any evidence task starts (no supervisor summary follows it). *)
  List.iter
    (fun secrets ->
      let err = Filename.temp_file "tpro-cli-secrets" ".err" in
      Fun.protect
        ~finally:(fun () -> Sys.remove err)
        (fun () ->
          Alcotest.(check int)
            ("--secrets " ^ secrets ^ " exits 124")
            124
            (Sys.command
               (Filename.quote_command tpro ~stdout:Filename.null ~stderr:err
                  [ "prove"; "--secrets"; secrets; "-j"; "1" ]));
          Alcotest.(check (list string))
            ("--secrets " ^ secrets ^ ": the reason alone on stderr")
            [
              "tpro prove: --secrets: need at least two distinct secrets, got "
              ^ secrets;
            ]
            (String.split_on_char '\n' (String.trim (read_file err)))))
    [ "0"; "0,0" ]

let test_prove_json_artifact () =
  let json = Filename.temp_file "tpro-cli-prove" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists json then Sys.remove json)
    (fun () ->
      check_exit "prove --json exits 0" 0 (smoke @ ack @ [ "--json"; json ]);
      let body = read_file json in
      List.iter
        (fun needle ->
          let lh = String.length body and ln = String.length needle in
          let rec go i =
            i + ln <= lh && (String.sub body i ln = needle || go (i + 1))
          in
          Alcotest.(check bool) ("artifact mentions " ^ needle) true (go 0))
        [
          "tpro-prove/1"; "flush:l1d0"; "partition:llc";
          "kernel:padded-switch"; "exhaustive:cache"; "\"holds\": true";
        ])

(* A prove run resumed from a half-way checkpoint (only some of the
   (preset x seed) evidence tasks recorded) prints stdout byte-identical
   to an uninterrupted run. *)
let test_prove_checkpoint_resume () =
  let ckpt = Filename.temp_file "tpro-cli-pck" ".txt" in
  let ref_out = Filename.temp_file "tpro-cli-pref" ".txt" in
  let res_out = Filename.temp_file "tpro-cli-pres" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ ckpt; ref_out; res_out ])
    (fun () ->
      Sys.remove ckpt;
      let base = smoke @ ack @ [ "--seeds"; "0,1" ] in
      Alcotest.(check int) "reference prove exits 0" 0
        (run ~stdout:ref_out base);
      (* partial: only seed 0's evidence lands in the checkpoint *)
      Alcotest.(check int) "partial prove exits 0" 0
        (run
           (smoke @ ack @ [ "--seeds"; "0"; "--checkpoint"; ckpt ]));
      Alcotest.(check bool) "checkpoint written" true (Sys.file_exists ckpt);
      (* the resumed full run rejects the seed-mismatched checkpoint and
         recollects — still byte-identical output *)
      Alcotest.(check int) "resumed prove exits 0" 0
        (run ~stdout:res_out (base @ [ "--resume"; ckpt ]));
      Alcotest.(check string) "resumed stdout is byte-identical"
        (read_file ref_out) (read_file res_out);
      (* resuming with matching parameters reuses every task *)
      Alcotest.(check int) "second resume exits 0" 0
        (run ~stdout:res_out (base @ [ "--resume"; ckpt ]));
      Alcotest.(check string) "fully-resumed stdout is byte-identical"
        (read_file ref_out) (read_file res_out))

(* `prove --all` proves every preset once, in the standard-then-ablation
   order: `full` closes the standard four and heads the ablation grid,
   and used to be proved (and reported) twice. *)
let count needle hay =
  let lh = String.length hay and ln = String.length needle in
  let rec go i n =
    if i + ln > lh then n
    else if String.sub hay i ln = needle then go (i + ln) (n + 1)
    else go (i + 1) n
  in
  go 0 0

let test_prove_all_once () =
  with_files 2 (function
    | [ out; json ] ->
      Alcotest.(check int) "prove --all exits 1 (ablations are refuted)" 1
        (run ~stdout:out (smoke @ [ "--all"; "--json"; json ]));
      let out = read_file out and json = read_file json in
      let presets = Time_protection.Presets.known in
      Alcotest.(check int) "one theorem per preset" (List.length presets)
        (count "theorem for preset " out);
      List.iter
        (fun (name, _) ->
          Alcotest.(check int) ("one theorem for " ^ name) 1
            (count (Printf.sprintf "theorem for preset %s:" name) out))
        presets;
      Alcotest.(check int) "one JSON entry for full" 1
        (count "\"preset\": \"full\"" json)
    | _ -> assert false)

(* With --checkpoint, `prove --all` snapshots as soon as its first tasks
   settle, so a SIGKILL after the first snapshot leaves evidence to
   resume from; the resumed stdout is byte-identical to an uninterrupted
   run. *)
let test_prove_snapshots_early () =
  with_files 3 (function
    | [ ckpt; ref_out; res_out ] ->
      Sys.remove ckpt;
      let args = smoke @ [ "--all" ] in
      let tasks = List.length Time_protection.Presets.known in
      Alcotest.(check int) "reference exits 1" 1 (run ~stdout:ref_out args);
      let devnull = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
      let pid =
        Unix.create_process tpro
          (Array.of_list (tpro :: (args @ [ "--checkpoint"; ckpt ])))
          Unix.stdin devnull devnull
      in
      Unix.close devnull;
      let rec wait_snapshot () =
        if Sys.file_exists ckpt then true
        else
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
            Unix.sleepf 0.002;
            wait_snapshot ()
          | _ -> false
      in
      let seen = wait_snapshot () in
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      Alcotest.(check bool) "a snapshot landed while the run was live" true seen;
      let settled =
        match Tpro_engine.Checkpoint.load ~path:ckpt with
        | Ok text -> count "\ntask " text
        | Error e ->
          Alcotest.failf "snapshot unreadable: %s"
            (Tpro_engine.Checkpoint.error_to_string e)
      in
      Alcotest.(check bool)
        (Printf.sprintf "first snapshot holds %d of %d tasks" settled tasks)
        true
        (settled > 0 && settled < tasks);
      Alcotest.(check int) "resumed exits 1" 1
        (run ~stdout:res_out (args @ [ "--resume"; ckpt ]));
      Alcotest.(check string) "resumed stdout is byte-identical"
        (read_file ref_out) (read_file res_out)
    | _ -> assert false)

(* `tpro topo` mirrors `tpro fuzz`'s exit semantics over topology
   campaigns: 0 on a clean pairwise sweep, 1 on a violation (writing a
   format-2 counterexample that replays to the same verdict), 124 on
   parse errors. *)
let test_topo_exit_codes () =
  check_exit "small clean topo run exits 0" 0
    [ "topo"; "--trials"; "6"; "--seed"; "5"; "-j"; "2" ];
  check_exit "bad --domains" 124 [ "topo"; "--domains"; "x" ];
  check_exit "bad --mutant" 124 [ "topo"; "--mutant"; "wat" ];
  check_exit "missing replay file exits 1" 1
    [ "topo"; "--replay"; "/nonexistent/topo-replay" ]

let test_topo_mutant_run_and_replay () =
  let out = Filename.temp_file "tpro-cli-topo-cex" ".txt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists out then Sys.remove out)
    (fun () ->
      check_exit "mutant topo run exits 1" 1
        [
          "topo"; "--trials"; "40"; "--seed"; "42"; "--mutant"; "skip-flush";
          "-j"; "2"; "--out"; out;
        ];
      Alcotest.(check bool) "counterexample file written" true
        (Sys.file_exists out);
      (match Tpro_fuzz.Replay.load out with
      | Ok (Tpro_fuzz.Replay.Topology t) ->
        Alcotest.(check bool) "saved topology carries the mutant" true
          (t.Tpro_fuzz.Topology.mutant = Tpro_fuzz.Scenario.Skip_flush)
      | Ok (Tpro_fuzz.Replay.Scenario _) ->
        Alcotest.fail "topo counterexample parsed as a scenario"
      | Error e ->
        Alcotest.failf "counterexample unreadable: %s"
          (Tpro_fuzz.Replay.load_error_to_string e));
      check_exit "replaying the counterexample exits 1" 1
        [ "topo"; "--replay"; out ];
      (* the fuzz subcommand reads format-2 files too — Replay
         dispatches on the declared version *)
      check_exit "fuzz --replay reads a topology file" 1
        [ "fuzz"; "--replay"; out ])

let suite =
  [
    Alcotest.test_case "cmdliner parse errors exit 124" `Quick
      test_parse_errors;
    Alcotest.test_case "clean fuzz run exits 0" `Quick test_clean_fuzz_run;
    Alcotest.test_case "mutant run writes a replayable counterexample" `Quick
      test_mutant_run_and_replay;
    Alcotest.test_case "missing replay file exits 1" `Quick
      test_replay_missing_file;
    Alcotest.test_case "malformed replay file exits 124" `Quick
      test_replay_malformed_file;
    Alcotest.test_case "checkpoint/resume stdout is byte-identical" `Quick
      test_checkpoint_resume_identical;
    Alcotest.test_case "prove exit codes" `Quick test_prove_exit_codes;
    Alcotest.test_case "prove writes the lemma-verdict artifact" `Quick
      test_prove_json_artifact;
    Alcotest.test_case "prove checkpoint/resume stdout is byte-identical"
      `Quick test_prove_checkpoint_resume;
    Alcotest.test_case "prove --all proves each preset once" `Quick
      test_prove_all_once;
    Alcotest.test_case "prove --checkpoint snapshots before the last task"
      `Quick test_prove_snapshots_early;
    Alcotest.test_case "topo exit codes" `Quick test_topo_exit_codes;
    Alcotest.test_case "topo mutant run writes a replayable counterexample"
      `Quick test_topo_mutant_run_and_replay;
  ]
