(* The serve layer's robustness contract, driven by the server-side
   fault matrix: framing survives torn/corrupt/garbage streams, the
   journal survives torn tails, and the daemon+client pair survives
   disconnects, overload, slow readers, injected crashes and a real
   SIGKILL — with the delivered results bit-identical to an
   uninterrupted run.  In-process tests run the daemon in a separate
   domain on a temp-dir socket; the final tests drive the installed
   binary like CI's kill-and-resume job does. *)

open Tpro_serve
module Frame = Tpro_engine.Frame
module Checkpoint = Tpro_engine.Checkpoint
module Fuel = Tpro_engine.Supervisor.Fuel

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let counter = ref 0

let fresh_dir () =
  incr counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tpro-serve-%d-%d" (Unix.getpid ()) !counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  dir

(* ------------------------------------------------------------------ *)
(* Frame                                                                *)

let m = "test-magic"
let v = 3

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      match Frame.decode ~magic:m ~version:v (Frame.encode ~magic:m ~version:v payload) with
      | Ok got -> Alcotest.(check string) "round-trip" payload got
      | Error e -> Alcotest.failf "decode failed: %s" (Frame.error_to_string e))
    [ ""; "x"; "line one\nline two\n"; String.init 256 Char.chr ]

let test_frame_decode_prefix_stream () =
  let payloads = [ "alpha"; ""; "gamma\nwith\nnewlines" ] in
  let stream =
    String.concat "" (List.map (Frame.encode ~magic:m ~version:v) payloads)
  in
  let rec collect pos acc =
    if pos >= String.length stream then List.rev acc
    else
      match Frame.decode_prefix ~magic:m ~version:v ~pos stream with
      | `Frame (p, next) -> collect next (p :: acc)
      | `Incomplete -> Alcotest.fail "unexpected incomplete"
      | `Error e -> Alcotest.failf "decode error: %s" (Frame.error_to_string e)
  in
  Alcotest.(check (list string)) "all frames recovered" payloads (collect 0 [])

let test_frame_decoder_byte_at_a_time () =
  let payloads = [ "first"; "second"; "third" ] in
  let stream =
    String.concat "" (List.map (Frame.encode ~magic:m ~version:v) payloads)
  in
  let dec = Frame.Decoder.create ~magic:m ~version:v () in
  let got = ref [] in
  String.iter
    (fun c ->
      Frame.Decoder.feed dec (String.make 1 c);
      match Frame.Decoder.pop dec with
      | Ok (Some p) -> got := p :: !got
      | Ok None -> ()
      | Error e -> Alcotest.failf "decoder error: %s" (Frame.error_to_string e))
    stream;
  Alcotest.(check (list string)) "byte-fed frames in order" payloads
    (List.rev !got);
  Alcotest.(check bool) "nothing pending at a frame boundary" false
    (Frame.Decoder.pending dec)

let test_frame_decoder_torn_is_pending () =
  let dec = Frame.Decoder.create ~magic:m ~version:v () in
  Frame.Decoder.feed dec (Frame.encode_torn ~magic:m ~version:v "payload-bytes");
  (match Frame.Decoder.pop dec with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "torn frame decoded as complete"
  | Error e ->
    Alcotest.failf "torn tail must read as incomplete, got %s"
      (Frame.error_to_string e));
  Alcotest.(check bool) "pending bytes flag the mid-frame EOF" true
    (Frame.Decoder.pending dec)

let test_frame_decoder_corrupt_is_sticky () =
  let frame = Frame.encode ~magic:m ~version:v "corrupt-me" in
  let bad = Bytes.of_string frame in
  Bytes.set bad (Bytes.length bad - 1) '!';
  let dec = Frame.Decoder.create ~magic:m ~version:v () in
  Frame.Decoder.feed dec (Bytes.to_string bad);
  (match Frame.Decoder.pop dec with
  | Error (Frame.Bad_crc _) -> ()
  | _ -> Alcotest.fail "corrupted payload must fail its CRC");
  Frame.Decoder.feed dec (Frame.encode ~magic:m ~version:v "good");
  match Frame.Decoder.pop dec with
  | Error (Frame.Bad_crc _) -> ()
  | _ -> Alcotest.fail "decoder errors must be sticky"

let test_frame_decoder_garbage_and_oversized () =
  let dec = Frame.Decoder.create ~magic:m ~version:v () in
  Frame.Decoder.feed dec (String.make 300 'g');
  (match Frame.Decoder.pop dec with
  | Error Frame.Bad_magic -> ()
  | _ -> Alcotest.fail "a long newline-free prefix is garbage, not a header");
  let dec = Frame.Decoder.create ~max_payload:8 ~magic:m ~version:v () in
  Frame.Decoder.feed dec (Frame.encode ~magic:m ~version:v "123456789");
  (match Frame.Decoder.pop dec with
  | Error (Frame.Oversized { limit = 8; got = 9 }) -> ()
  | _ -> Alcotest.fail "over-limit frames must be rejected before buffering");
  let dec = Frame.Decoder.create ~magic:m ~version:v () in
  Frame.Decoder.feed dec (Frame.encode ~magic:m ~version:(v + 1) "x");
  match Frame.Decoder.pop dec with
  | Error (Frame.Bad_version got) -> Alcotest.(check int) "version" (v + 1) got
  | _ -> Alcotest.fail "wrong version must be typed"

(* ------------------------------------------------------------------ *)
(* Checkpoint golden fixture: the Frame extraction must keep the
   on-disk checkpoint format byte-identical.                            *)

let golden_payload =
  "kind golden-fixture\nline two\ttabbed\nback\\slash\nseed 42\n"

let golden_path = Filename.concat "fixtures" "checkpoint_golden.ckpt"

let test_checkpoint_golden_bytes () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "now.ckpt" in
  Checkpoint.save ~path golden_payload;
  Alcotest.(check string)
    "checkpoint bytes identical to the committed golden file"
    (read_file golden_path) (read_file path);
  (match Checkpoint.load ~path:golden_path with
  | Ok p -> Alcotest.(check string) "golden file loads" golden_payload p
  | Error e ->
    Alcotest.failf "golden fixture unreadable: %s"
      (Checkpoint.error_to_string e));
  (* the pid-suffixed temporary never survives a completed save *)
  Alcotest.(check (list string)) "no temporary left behind" [ "now.ckpt" ]
    (Array.to_list (Sys.readdir dir));
  Checkpoint.fsync_dir dir;
  Checkpoint.fsync_dir "/nonexistent-directory-for-fsync"

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                        *)

let test_wire_request_roundtrip () =
  let reqs =
    [
      Wire.Hello "tenant-a";
      Wire.Submit { Job.id = "j-1"; deadline = 1234; kind = Job.Ping };
      Wire.Submit
        {
          Job.id = "j-2";
          deadline = 0;
          kind =
            Job.Topo
              {
                seed = 7;
                idx = 3;
                max_domains = 5;
                max_cores = 2;
                mutant = Tpro_fuzz.Scenario.Skip_flush;
              };
        };
      Wire.Submit
        {
          Job.id = "j-3";
          deadline = 9;
          kind = Job.Prove { preset = "full"; seed = 1; secrets = [ 0; 3 ] };
        };
      Wire.Submit
        { Job.id = "j-4"; deadline = 9; kind = Job.Table { id = "e2"; seeds = [] } };
      Wire.Ping;
      Wire.Get_stats;
      Wire.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      match Wire.request_of_payload (Wire.request_to_payload r) with
      | Ok got ->
        Alcotest.(check bool)
          (Printf.sprintf "request round-trip: %s" (Wire.request_to_payload r))
          true (got = r)
      | Error e -> Alcotest.failf "request rejected: %s" e)
    reqs

let test_wire_response_roundtrip () =
  let multiline = "table e2\nrow 1\t2\t3\nrow 4\t5\t6\nback\\slash" in
  let resps =
    [
      Wire.Welcome 1;
      Wire.Accepted "j-1";
      Wire.Busy { id = "j-9"; retry_after_ms = 250; queued = 4096 };
      Wire.Result { id = "j-1"; outcome = Ok multiline };
      Wire.Result
        { id = "j-2"; outcome = Error (Wire.Deadline, "fuel budget 100") };
      Wire.Result
        { id = "j-3"; outcome = Error (Wire.Raised, "boom\nwith newline") };
      Wire.Result { id = "j-4"; outcome = Error (Wire.Rejected, "no such id") };
      Wire.Pong;
      Wire.Stats_reply [ ("accepted", "10"); ("completed", "9") ];
      Wire.Error_msg "bad request: nope";
      Wire.Bye;
    ]
  in
  List.iter
    (fun r ->
      match Wire.response_of_payload (Wire.response_to_payload r) with
      | Ok got ->
        Alcotest.(check bool)
          (Printf.sprintf "response round-trip: %s"
             (String.sub (Wire.response_to_payload r) 0
                (min 30 (String.length (Wire.response_to_payload r)))))
          true (got = r)
      | Error e -> Alcotest.failf "response rejected: %s" e)
    resps

let test_wire_rejects_malformed () =
  List.iter
    (fun payload ->
      match Wire.request_of_payload payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed request accepted: %s" payload)
    [ "frobnicate"; "hello"; "hello two tokens"; "submit j-1 noint ping";
      "submit j-1 -5 ping"; "submit bad\tid 0 ping" ];
  List.iter
    (fun payload ->
      match Wire.response_of_payload payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed response accepted: %s" payload)
    [ "nope"; "busy j 1"; "result j ok \\q"; "result j failed wat detail";
      "welcome x" ]

(* ------------------------------------------------------------------ *)
(* Job                                                                  *)

let test_job_kind_roundtrip () =
  let kinds =
    [
      Job.Ping;
      Job.Spin 500;
      Job.Fuzz { seed = 11; idx = 42; mutant = Tpro_fuzz.Scenario.Miscolour };
      Job.Topo
        {
          seed = 2;
          idx = 9;
          max_domains = 8;
          max_cores = 4;
          mutant = Tpro_fuzz.Scenario.No_mutant;
        };
      Job.Prove { preset = "flush+pad"; seed = 3; secrets = [ 1; 2; 5 ] };
      Job.Prove { preset = "full"; seed = 0; secrets = [] };
      Job.Table { id = "e5"; seeds = [ 0; 1 ] };
    ]
  in
  List.iter
    (fun k ->
      match Job.kind_of_string (Job.kind_to_string k) with
      | Ok got ->
        Alcotest.(check bool)
          (Printf.sprintf "kind round-trip: %s" (Job.kind_to_string k))
          true (got = k)
      | Error e -> Alcotest.failf "kind rejected: %s" e)
    kinds

let test_job_execute_and_deadline () =
  let unlimited () = Fuel.make None in
  (match Job.execute ~fuel:(unlimited ()) Job.Ping with
  | Ok "pong" -> ()
  | _ -> Alcotest.fail "ping must pong");
  let spin1 = Job.execute ~fuel:(unlimited ()) (Job.Spin 100) in
  let spin2 = Job.execute ~fuel:(unlimited ()) (Job.Spin 100) in
  Alcotest.(check bool) "spin is deterministic" true (spin1 = spin2);
  (match
     Job.execute ~fuel:(unlimited ())
       (Job.Prove { preset = "no-such-preset"; seed = 0; secrets = [] })
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown preset must be rejected");
  (match
     Job.execute ~fuel:(unlimited ())
       (Job.Prove { preset = "full"; seed = 0; secrets = [ 3 ] })
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a single secret must be rejected");
  (match
     Job.execute ~fuel:(unlimited ()) (Job.Table { id = "e99"; seeds = [] })
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown experiment must be rejected");
  (* a deadline gauge cuts a runaway spin off mid-flight *)
  match Job.execute ~fuel:(Fuel.make (Some 50)) (Job.Spin 10_000) with
  | exception Fuel.Out_of_fuel { budget = 50 } -> ()
  | _ -> Alcotest.fail "the deadline gauge must trip inside the spin"

(* ------------------------------------------------------------------ *)
(* Journal                                                              *)

let sample_records =
  [
    Journal.Accepted
      {
        job = { Job.id = "a-1"; deadline = 100; kind = Job.Spin 7 };
        tenant = "ta";
      };
    Journal.Accepted
      {
        job =
          {
            Job.id = "a-2";
            deadline = 0;
            kind = Job.Fuzz { seed = 1; idx = 2; mutant = Tpro_fuzz.Scenario.No_mutant };
          };
        tenant = "tb";
      };
    Journal.Done { id = "a-1"; outcome = Ok "spun 7 (0)" };
    Journal.Done
      { id = "a-2"; outcome = Error (Wire.Deadline, "budget 9 exhausted") };
  ]

let test_journal_roundtrip () =
  let path = Filename.concat (fresh_dir ()) "j.bin" in
  let j, r0 = Journal.open_ ~path ~resume:false in
  Alcotest.(check int) "fresh journal is empty" 0 (List.length r0.Journal.records);
  List.iter (Journal.append j) sample_records;
  Journal.sync j;
  Journal.close j;
  let j2, r = Journal.open_ ~path ~resume:true in
  Journal.close j2;
  Alcotest.(check bool) "no damage" false r.Journal.dropped;
  Alcotest.(check bool) "records replayed in order" true
    (r.Journal.records = sample_records)

let test_journal_torn_tail_recovery () =
  let path = Filename.concat (fresh_dir ()) "j.bin" in
  let j, _ = Journal.open_ ~path ~resume:false in
  List.iter (Journal.append j) sample_records;
  Journal.append_torn j (Journal.Done { id = "a-9"; outcome = Ok "never-lands" });
  Journal.close j;
  let j2, r = Journal.open_ ~path ~resume:true in
  Alcotest.(check bool) "tear detected and dropped" true r.Journal.dropped;
  Alcotest.(check bool) "note explains the damage" true
    (List.exists
       (fun n -> String.length n > 0 && r.Journal.dropped)
       r.Journal.notes);
  Alcotest.(check bool) "valid prefix survives" true
    (r.Journal.records = sample_records);
  (* the file was truncated back to the valid prefix: appending after
     recovery yields a clean journal *)
  Journal.append j2 (Journal.Done { id = "a-3"; outcome = Ok "post-recovery" });
  Journal.sync j2;
  Journal.close j2;
  let j3, r3 = Journal.open_ ~path ~resume:true in
  Journal.close j3;
  Alcotest.(check bool) "clean after recovery + append" false r3.Journal.dropped;
  Alcotest.(check int) "prefix plus the new record" 5
    (List.length r3.Journal.records)

let test_journal_fresh_open_truncates () =
  let path = Filename.concat (fresh_dir ()) "j.bin" in
  let j, _ = Journal.open_ ~path ~resume:false in
  List.iter (Journal.append j) sample_records;
  Journal.close j;
  let j2, r = Journal.open_ ~path ~resume:false in
  Journal.close j2;
  Alcotest.(check int) "non-resume open starts a fresh campaign" 0
    (List.length r.Journal.records);
  Alcotest.(check int) "file truncated" 0
    (String.length (read_file path))

(* ------------------------------------------------------------------ *)
(* In-process server end-to-end                                         *)

let with_server ?(tweak = fun c -> c) f =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let journal = Filename.concat dir "j.bin" in
  let cfg =
    tweak
      {
        (Server.default_config ~socket) with
        journal = Some journal;
        domains = Some 1;
      }
  in
  let ready = Atomic.make false in
  let srv =
    Domain.spawn (fun () ->
        Server.run ~on_ready:(fun () -> Atomic.set ready true) cfg)
  in
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get ready)) && Unix.gettimeofday () -. t0 < 10. do
    Unix.sleepf 0.002
  done;
  let out =
    try f ~socket ~journal
    with e ->
      (try ignore (Client.shutdown_server ~socket) with _ -> ());
      ignore (Domain.join srv);
      raise e
  in
  (match Client.shutdown_server ~socket with
  | Ok () -> ()
  | Error _ -> ());
  (out, Domain.join srv)

let jobs_of_kinds prefix kinds =
  List.mapi
    (fun i kind ->
      { Job.id = Printf.sprintf "%s-%03d" prefix i; deadline = 0; kind })
    kinds

let stat kvs k =
  match List.assoc_opt k kvs with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "stats reply lacks %s" k

let test_serve_end_to_end () =
  let kinds =
    [
      Job.Ping;
      Job.Spin 100;
      Job.Fuzz { seed = 3; idx = 1; mutant = Tpro_fuzz.Scenario.No_mutant };
      Job.Prove { preset = "no-such-preset"; seed = 0; secrets = [] };
    ]
  in
  let (report, kvs), stats =
    with_server (fun ~socket ~journal:_ ->
        let report =
          match
            Client.run_jobs ~socket ~tenant:"t0" (jobs_of_kinds "e2e" kinds)
          with
          | Ok r -> r
          | Error e -> Alcotest.failf "run_jobs failed: %s" e
        in
        let kvs =
          match Client.server_stats ~socket with
          | Ok kvs -> kvs
          | Error e -> Alcotest.failf "stats failed: %s" e
        in
        (report, kvs))
  in
  let expect kind =
    match Job.execute ~fuel:(Fuel.make None) kind with
    | Ok p -> Ok p
    | Error e -> Error e
  in
  List.iteri
    (fun i (id, outcome) ->
      Alcotest.(check string) "ids in submission order"
        (Printf.sprintf "e2e-%03d" i) id;
      match (outcome, expect (List.nth kinds i)) with
      | Ok got, Ok want ->
        Alcotest.(check string) "served result identical to direct execution"
          want got
      | Error (Wire.Rejected, detail), Error want ->
        Alcotest.(check string) "rejection carries the job's own error" want
          detail
      | _ -> Alcotest.failf "unexpected outcome for %s" id)
    report.Client.results;
  Alcotest.(check int) "stats: accepted" 4 (stat kvs "accepted");
  Alcotest.(check int) "stats: completed" 4 (stat kvs "completed");
  Alcotest.(check int) "stats: failed counts the rejection" 1 (stat kvs "failed");
  Alcotest.(check int) "server stats agree" 4 stats.Server.accepted;
  Alcotest.(check int) "nothing recovered on a fresh journal" 0
    stats.Server.recovered_jobs

let test_serve_deadline_cuts_hung_job () =
  let jobs =
    [
      { Job.id = "hung-0"; deadline = 200; kind = Job.Spin 1_000_000 };
      { Job.id = "hung-1"; deadline = 0; kind = Job.Spin 50 };
    ]
  in
  let report, stats =
    with_server (fun ~socket ~journal:_ ->
        match Client.run_jobs ~socket ~tenant:"t0" jobs with
        | Ok r -> r
        | Error e -> Alcotest.failf "run_jobs failed: %s" e)
  in
  (match report.Client.results with
  | [ (_, Error (Wire.Deadline, detail)); (_, Ok _) ] ->
    Alcotest.(check bool) "detail names the budget" true
      (String.length detail > 0)
  | _ -> Alcotest.fail "the runaway job must fail Deadline; the other runs");
  Alcotest.(check int) "one failure tallied" 1 stats.Server.failed

let test_serve_idempotent_resubmission () =
  let jobs = jobs_of_kinds "idem" [ Job.Spin 64; Job.Ping ] in
  let (first, second), stats =
    with_server (fun ~socket ~journal:_ ->
        let run () =
          match Client.run_jobs ~socket ~tenant:"t0" jobs with
          | Ok r -> r.Client.results
          | Error e -> Alcotest.failf "run_jobs failed: %s" e
        in
        let first = run () in
        let second = run () in
        (first, second))
  in
  Alcotest.(check bool) "resubmitted ids replay identical results" true
    (first = second);
  Alcotest.(check int) "executed once, not twice" 2 stats.Server.executed;
  Alcotest.(check bool) "idempotent hits recorded" true
    (stats.Server.idempotent_hits >= 2)

let test_serve_busy_overload_typed () =
  let jobs = jobs_of_kinds "busy" (List.init 12 (fun _ -> Job.Spin 50_000)) in
  let report, stats =
    with_server
      ~tweak:(fun c -> { c with Server.queue_max = 2; batch = 1 })
      (fun ~socket ~journal:_ ->
        match Client.run_jobs ~socket ~tenant:"t0" ~window:12 jobs with
        | Ok r -> r
        | Error e -> Alcotest.failf "overload must not fail the run: %s" e)
  in
  Alcotest.(check int) "every job completed despite overload" 12
    (List.length report.Client.results);
  Alcotest.(check bool) "all ok" true
    (List.for_all (fun (_, o) -> Result.is_ok o) report.Client.results);
  Alcotest.(check bool) "typed busy rejections were issued" true
    (stats.Server.busy_rejections > 0);
  Alcotest.(check bool) "client retried after the hint" true
    (report.Client.busy_retries > 0)

let test_serve_two_tenants_fair () =
  let heavy = jobs_of_kinds "heavy" (List.init 60 (fun _ -> Job.Spin 200_000)) in
  let light = jobs_of_kinds "light" (List.init 5 (fun _ -> Job.Spin 200_000)) in
  let (ra, rb), _stats =
    with_server
      ~tweak:(fun c -> { c with Server.batch = 4 })
      (fun ~socket ~journal:_ ->
        let da =
          Domain.spawn (fun () ->
              Client.run_jobs ~socket ~tenant:"heavy" ~window:64 heavy)
        in
        Unix.sleepf 0.05;
        let db =
          Domain.spawn (fun () ->
              Client.run_jobs ~socket ~tenant:"light" ~window:8 light)
        in
        (Domain.join da, Domain.join db))
  in
  match (ra, rb) with
  | Ok ra, Ok rb ->
    Alcotest.(check int) "heavy tenant completed" 60
      (List.length ra.Client.results);
    Alcotest.(check int) "light tenant completed" 5
      (List.length rb.Client.results);
    (* round-robin: the light tenant's five jobs interleave with the
       heavy backlog instead of waiting behind all sixty *)
    Alcotest.(check bool)
      (Printf.sprintf "light (%.3fs) finishes well before heavy (%.3fs)"
         rb.Client.duration ra.Client.duration)
      true
      (rb.Client.duration < ra.Client.duration *. 0.75)
  | Error e, _ | _, Error e -> Alcotest.failf "tenant run failed: %s" e

(* A slow reader: submits jobs and then refuses to read its socket.
   Its results park behind the per-connection write cap; a second
   tenant's campaign must run to completion meanwhile. *)
let test_serve_slow_reader_backpressure () =
  let n_slow = 20 in
  let (), _stats =
    with_server
      ~tweak:(fun c -> { c with Server.outq_limit = 1024 })
      (fun ~socket ~journal:_ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        let send r =
          let s = Wire.encode_request r in
          ignore (Unix.write_substring fd s 0 (String.length s))
        in
        send (Wire.Hello "slow");
        for i = 0 to n_slow - 1 do
          send
            (Wire.Submit
               {
                 Job.id = Printf.sprintf "slow-%03d" i;
                 deadline = 0;
                 kind = Job.Spin 4000;
               })
        done;
        (* do not read; let results pile up against the cap *)
        Unix.sleepf 0.2;
        (* the other tenant must be unaffected *)
        (match
           Client.run_jobs ~socket ~tenant:"nimble"
             (jobs_of_kinds "nimble" (List.init 5 (fun _ -> Job.Spin 100)))
         with
        | Ok r ->
          Alcotest.(check int) "nimble tenant ran past the slow reader" 5
            (List.length r.Client.results)
        | Error e -> Alcotest.failf "nimble tenant stalled: %s" e);
        (* now drain: everything parked must still arrive, in order *)
        let dec = Wire.decoder () in
        let buf = Bytes.create 65536 in
        let got = ref 0 in
        let t0 = Unix.gettimeofday () in
        while !got < n_slow && Unix.gettimeofday () -. t0 < 20. do
          (match Frame.Decoder.pop dec with
          | Ok (Some payload) -> (
            match Wire.response_of_payload payload with
            | Ok (Wire.Result _) -> incr got
            | Ok _ -> ()
            | Error e -> Alcotest.failf "bad payload while draining: %s" e)
          | Ok None -> (
            match Unix.select [ fd ] [] [] 5. with
            | [], _, _ -> Alcotest.fail "server stopped delivering parked results"
            | _ ->
              let n = Unix.read fd buf 0 (Bytes.length buf) in
              if n = 0 then Alcotest.fail "server closed the slow connection"
              else Frame.Decoder.feed dec (Bytes.sub_string buf 0 n))
          | Error e ->
            Alcotest.failf "stream corrupt while draining: %s"
              (Frame.error_to_string e))
        done;
        Alcotest.(check int) "every parked result delivered" n_slow !got;
        Unix.close fd)
  in
  ()

let test_serve_fault_torn_result_recovered () =
  let jobs = jobs_of_kinds "torn" (List.init 5 (fun _ -> Job.Spin 128)) in
  let report, stats =
    with_server
      ~tweak:(fun c -> { c with Server.fault = Server.Torn_result_frame })
      (fun ~socket ~journal:_ ->
        match Client.run_jobs ~socket ~tenant:"t0" jobs with
        | Ok r -> r
        | Error e -> Alcotest.failf "client must recover from the tear: %s" e)
  in
  Alcotest.(check int) "all results despite the torn frame" 5
    (List.length report.Client.results);
  Alcotest.(check bool) "recovery took a reconnect" true
    (report.Client.reconnects >= 1);
  Alcotest.(check bool) "server noted the injected tear" true
    (List.exists (fun n -> String.length n > 0) stats.Server.notes)

let test_serve_fault_drop_after_accept_recovered () =
  let jobs = jobs_of_kinds "drop" (List.init 5 (fun _ -> Job.Spin 128)) in
  let report, _stats =
    with_server
      ~tweak:(fun c -> { c with Server.fault = Server.Drop_after_accept })
      (fun ~socket ~journal:_ ->
        match Client.run_jobs ~socket ~tenant:"t0" jobs with
        | Ok r -> r
        | Error e -> Alcotest.failf "client must survive the disconnect: %s" e)
  in
  Alcotest.(check int) "all results despite the mid-job disconnect" 5
    (List.length report.Client.results);
  Alcotest.(check bool) "recovery took a reconnect" true
    (report.Client.reconnects >= 1)

let test_serve_fault_spawn_failure_degrades () =
  let jobs = jobs_of_kinds "spawn" (List.init 4 (fun _ -> Job.Spin 64)) in
  let report, stats =
    with_server
      ~tweak:(fun c ->
        { c with Server.fault = Server.Spawn_failure; domains = Some 4 })
      (fun ~socket ~journal:_ ->
        match Client.run_jobs ~socket ~tenant:"t0" jobs with
        | Ok r -> r
        | Error e -> Alcotest.failf "degraded server must still serve: %s" e)
  in
  Alcotest.(check int) "all jobs served sequentially" 4
    (List.length report.Client.results);
  Alcotest.(check bool) "degradation reported" true stats.Server.degraded

(* Torn-journal crash: the first completion record is written torn and
   the daemon stops cold.  A resumed daemon must drop the tear, re-run
   the affected job, and the client (which never saw a result) finishes
   with results bit-identical to direct execution. *)
let test_serve_torn_journal_crash_then_resume () =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let journal = Filename.concat dir "j.bin" in
  let jobs = jobs_of_kinds "crash" (List.init 6 (fun _ -> Job.Spin 777)) in
  let base =
    {
      (Server.default_config ~socket) with
      journal = Some journal;
      domains = Some 1;
    }
  in
  let ready = Atomic.make false in
  let srv1 =
    Domain.spawn (fun () ->
        Server.run
          ~on_ready:(fun () -> Atomic.set ready true)
          { base with Server.fault = Server.Torn_journal_crash })
  in
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get ready)) && Unix.gettimeofday () -. t0 < 10. do
    Unix.sleepf 0.002
  done;
  let client =
    Domain.spawn (fun () ->
        Client.run_jobs ~socket ~tenant:"t0" ~op_timeout:5. jobs)
  in
  let stats1 = Domain.join srv1 in
  Alcotest.(check bool) "first daemon died to the injected crash" true
    (List.exists
       (fun n -> String.length n > 0)
       stats1.Server.notes);
  Alcotest.(check int) "crash delivered nothing" 0 stats1.Server.completed;
  let ready2 = Atomic.make false in
  let srv2 =
    Domain.spawn (fun () ->
        Server.run
          ~on_ready:(fun () -> Atomic.set ready2 true)
          { base with Server.resume = true })
  in
  let report =
    match Domain.join client with
    | Ok r -> r
    | Error e -> Alcotest.failf "client lost the campaign: %s" e
  in
  (match Client.shutdown_server ~socket with Ok () -> () | Error _ -> ());
  let stats2 = Domain.join srv2 in
  let want =
    match Job.execute ~fuel:(Fuel.make None) (Job.Spin 777) with
    | Ok p -> p
    | Error e -> Alcotest.failf "direct execution failed: %s" e
  in
  Alcotest.(check int) "all six results" 6 (List.length report.Client.results);
  List.iter
    (fun (_, o) ->
      match o with
      | Ok got ->
        Alcotest.(check string)
          "post-crash results bit-identical to direct execution" want got
      | Error _ -> Alcotest.fail "no job may be lost to the crash")
    report.Client.results;
  Alcotest.(check bool) "resume re-queued the journaled jobs" true
    (stats2.Server.recovered_jobs >= 1);
  Alcotest.(check bool) "the torn record was dropped with a note" true
    (List.exists (fun n -> String.length n > 0) stats2.Server.notes)

(* ------------------------------------------------------------------ *)
(* Process-level kill-and-resume, driving the installed binary          *)

let tpro = Filename.concat (Filename.concat ".." "bin") "tpro.exe"

let devnull_fd () = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0o644

let spawn args =
  let null = devnull_fd () in
  let pid =
    Unix.create_process tpro
      (Array.of_list (tpro :: args))
      Unix.stdin null null
  in
  Unix.close null;
  pid

let wait_for_socket socket =
  let t0 = Unix.gettimeofday () in
  while (not (Sys.file_exists socket)) && Unix.gettimeofday () -. t0 < 10. do
    Unix.sleepf 0.01
  done;
  Alcotest.(check bool) "daemon socket appeared" true (Sys.file_exists socket)

(* the daemon may still be starting (or restarting over a stale socket
   file, where connect says refused rather than noent): keep trying *)
let shutdown_when_up socket =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match Client.shutdown_server ~socket with
    | Ok () -> ()
    | Error e ->
      if Unix.gettimeofday () -. t0 > 15. then
        Alcotest.failf "shutdown never reached the daemon: %s" e
      else (
        Unix.sleepf 0.05;
        go ())
  in
  go ()

let test_kill_and_resume_binary () =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "kr.sock" in
  let journal = Filename.concat dir "kr.bin" in
  let dump = Filename.concat dir "kr.dump" in
  let ref_socket = Filename.concat dir "ref.sock" in
  let ref_journal = Filename.concat dir "ref.bin" in
  let ref_dump = Filename.concat dir "ref.dump" in
  let n = 3000 in
  let client_args sock out =
    [
      "client"; "--socket"; sock; "--tenant"; "bench"; "--bench"; "-n";
      string_of_int n; "--kind"; "spin:20"; "--dump"; out;
    ]
  in
  (* reference: uninterrupted run *)
  let ref_srv =
    spawn [ "serve"; "--socket"; ref_socket; "--journal"; ref_journal; "-j"; "2" ]
  in
  wait_for_socket ref_socket;
  let ref_cli = spawn (client_args ref_socket ref_dump) in
  let _, ref_cli_status = Unix.waitpid [] ref_cli in
  Alcotest.(check bool) "reference client exits 0" true
    (ref_cli_status = Unix.WEXITED 0);
  shutdown_when_up ref_socket;
  ignore (Unix.waitpid [] ref_srv);
  (* the run under test: SIGKILL mid-burst, restart with --resume *)
  let srv1 =
    spawn [ "serve"; "--socket"; socket; "--journal"; journal; "-j"; "2" ]
  in
  wait_for_socket socket;
  let cli = spawn (client_args socket dump) in
  Unix.sleepf 0.08;
  Unix.kill srv1 Sys.sigkill;
  ignore (Unix.waitpid [] srv1);
  Unix.sleepf 0.1;
  let srv2 =
    spawn
      [
        "serve"; "--socket"; socket; "--journal"; journal; "--resume"; "-j"; "2";
      ]
  in
  let _, cli_status = Unix.waitpid [] cli in
  Alcotest.(check bool) "client finished the burst across the kill (exit 0)"
    true
    (cli_status = Unix.WEXITED 0);
  shutdown_when_up socket;
  let _, srv2_status = Unix.waitpid [] srv2 in
  Alcotest.(check bool) "resumed daemon exits 0" true
    (srv2_status = Unix.WEXITED 0);
  (* zero lost, zero duplicated, bit-identical *)
  let dump_lines path =
    String.split_on_char '\n' (String.trim (read_file path))
  in
  let killed = dump_lines dump in
  Alcotest.(check int) "zero jobs lost across the kill" n (List.length killed);
  let uniq = List.sort_uniq compare killed in
  Alcotest.(check int) "zero duplicated results" n (List.length uniq);
  Alcotest.(check string)
    "dump bit-identical to the uninterrupted reference run"
    (read_file ref_dump) (read_file dump)

let suite =
  [
    Alcotest.test_case "frame: round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame: multi-frame stream" `Quick
      test_frame_decode_prefix_stream;
    Alcotest.test_case "frame: decoder fed byte-at-a-time" `Quick
      test_frame_decoder_byte_at_a_time;
    Alcotest.test_case "frame: torn tail reads as pending" `Quick
      test_frame_decoder_torn_is_pending;
    Alcotest.test_case "frame: corrupt stream error is sticky" `Quick
      test_frame_decoder_corrupt_is_sticky;
    Alcotest.test_case "frame: garbage, oversized, wrong version" `Quick
      test_frame_decoder_garbage_and_oversized;
    Alcotest.test_case "checkpoint: golden fixture byte-identical" `Quick
      test_checkpoint_golden_bytes;
    Alcotest.test_case "wire: request round-trip" `Quick
      test_wire_request_roundtrip;
    Alcotest.test_case "wire: response round-trip" `Quick
      test_wire_response_roundtrip;
    Alcotest.test_case "wire: malformed rejected" `Quick
      test_wire_rejects_malformed;
    Alcotest.test_case "job: kind round-trip" `Quick test_job_kind_roundtrip;
    Alcotest.test_case "job: execution and deadline gauge" `Quick
      test_job_execute_and_deadline;
    Alcotest.test_case "journal: round-trip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal: torn tail dropped and truncated" `Quick
      test_journal_torn_tail_recovery;
    Alcotest.test_case "journal: fresh open truncates" `Quick
      test_journal_fresh_open_truncates;
    Alcotest.test_case "serve: end-to-end campaign" `Quick test_serve_end_to_end;
    Alcotest.test_case "serve: deadline cuts a hung job" `Quick
      test_serve_deadline_cuts_hung_job;
    Alcotest.test_case "serve: idempotent resubmission" `Quick
      test_serve_idempotent_resubmission;
    Alcotest.test_case "serve: overload is typed busy, not a hang" `Quick
      test_serve_busy_overload_typed;
    Alcotest.test_case "serve: two tenants, round-robin fairness" `Quick
      test_serve_two_tenants_fair;
    Alcotest.test_case "serve: slow reader parks, never stalls others" `Quick
      test_serve_slow_reader_backpressure;
    Alcotest.test_case "serve: fault - torn result frame recovered" `Quick
      test_serve_fault_torn_result_recovered;
    Alcotest.test_case "serve: fault - drop after accept recovered" `Quick
      test_serve_fault_drop_after_accept_recovered;
    Alcotest.test_case "serve: fault - spawn failure degrades" `Quick
      test_serve_fault_spawn_failure_degrades;
    Alcotest.test_case "serve: fault - torn journal crash, then resume" `Quick
      test_serve_torn_journal_crash_then_resume;
    Alcotest.test_case "serve: SIGKILL mid-burst, resume, bit-identical" `Quick
      test_kill_and_resume_binary;
  ]
