(* The fuzz harness's own guarantees: deterministic generation, replay
   round-trips, oracle soundness at scale (10,000 trials, zero
   violations) and mutant-kill validation — each injected defence bypass
   must be caught within a bounded trial budget, and the shrinker must
   hand back a smaller scenario that still fails. *)

open Tpro_fuzz

let scenario = Alcotest.testable Scenario.pp ( = )

let test_generate_deterministic () =
  for idx = 0 to 49 do
    Alcotest.check scenario
      (Printf.sprintf "generate ~seed:7 %d is stable" idx)
      (Scenario.generate ~seed:7 idx)
      (Scenario.generate ~seed:7 idx)
  done;
  Alcotest.(check bool) "different indices differ" true
    (Scenario.generate ~seed:7 0 <> Scenario.generate ~seed:7 1);
  Alcotest.(check bool) "different seeds differ" true
    (Scenario.generate ~seed:7 0 <> Scenario.generate ~seed:8 0)

let test_serialisation_roundtrip () =
  List.iter
    (fun mutant ->
      for idx = 0 to 19 do
        let s = Scenario.generate ~seed:3 ~mutant idx in
        match Scenario.of_string (Scenario.to_string s) with
        | Ok s' -> Alcotest.check scenario "to_string/of_string" s s'
        | Error e ->
          Alcotest.failf "of_string failed: %a" Scenario.pp_parse_error e
      done)
    [ Scenario.No_mutant; Scenario.Skip_flush; Scenario.Drop_padding;
      Scenario.Miscolour ]

let test_file_roundtrip () =
  let s = Scenario.generate ~seed:11 4 in
  let path = Filename.temp_file "tpro-fuzz" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Scenario.save path s;
      match Scenario.load path with
      | Ok s' -> Alcotest.check scenario "save/load" s s'
      | Error e -> Alcotest.failf "load failed: %s" (Scenario.load_error_to_string e));
  match Scenario.load "/nonexistent/fuzz-scenario" with
  | Ok _ -> Alcotest.fail "loading a missing file must not succeed"
  | Error (Scenario.Io _) -> ()
  | Error (Scenario.Parse _) ->
    Alcotest.fail "a missing file is an Io error, not a Parse error"

(* [text] with its 1-based line [line] replaced, and the line of the
   first [key] line in [text]. *)
let with_line text ~line replacement =
  String.concat "\n"
    (List.mapi
       (fun i l -> if i + 1 = line then replacement else l)
       (String.split_on_char '\n' text))

let line_of text key =
  let rec go i = function
    | [] -> Alcotest.failf "no `%s` line" key
    | l :: rest ->
      if String.starts_with ~prefix:(key ^ " ") l then i else go (i + 1) rest
  in
  go 1 (String.split_on_char '\n' text)

(* Malformed replay files yield a typed parse error naming the offending
   line — never an exception, never a silent default. *)
let check_parse_error
    ?(parse = fun text -> Result.map ignore (Scenario.of_string text)) name
    text ~line ~grep =
  match parse text with
  | Ok _ -> Alcotest.failf "%s: malformed input parsed successfully" name
  | Error e ->
    Alcotest.(check int) (name ^ ": line number") line e.Scenario.line;
    let mentions needle hay =
      let lh = String.length hay and ln = String.length needle in
      let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: reason %S mentions %S" name e.Scenario.reason grep)
      true (mentions grep e.Scenario.reason)

let test_parse_errors_typed () =
  let base = Scenario.to_string (Scenario.generate ~seed:3 0) in
  (* the line a suffix of [base] starts on *)
  let after = List.length (String.split_on_char '\n' base) in
  check_parse_error "missing value" (base ^ "orphan\n") ~line:after
    ~grep:"missing value";
  check_parse_error "non-integer" "seed x\n" ~line:1 ~grep:"integer";
  check_parse_error "unknown key" (base ^ "wat 3\n") ~line:after
    ~grep:"unknown key";
  check_parse_error "duplicate key" (base ^ "seed 3\n") ~line:after
    ~grep:"duplicate key";
  check_parse_error "bad mutant" "mutant frobnicate\n" ~line:1 ~grep:"mutant";
  check_parse_error "missing key" "seed 1\n" ~line:0 ~grep:"missing key";
  (* the reported line is the offending one, not the first *)
  check_parse_error "line counting" "seed 1\nidx 2\noracle nonint\nidx 9\n"
    ~line:4 ~grep:"duplicate key";
  (* values that parse as integers but would crash the trial, or give a
     false verdict, on replay *)
  List.iter
    (fun (key, value) ->
      let line = line_of base key in
      check_parse_error
        (Printf.sprintf "%s %d" key value)
        (with_line base ~line (Printf.sprintf "%s %d" key value))
        ~line ~grep:"must be at least")
    [
      ("preset", -1); ("channel", -1); ("secret_a", -1); ("secret_b", -1);
      ("slice", 0); ("hi_len", -1); ("lo_phases", -1); ("lo_lines", -1);
    ];
  let topo =
    Topology.to_string (Topology.generate ~seed:3 ~mutant:Scenario.Skip_flush 0)
  in
  let parse text = Result.map ignore (Topology.of_string text) in
  (* a topology's range checks are on the whole file: line 0 *)
  List.iter
    (fun (name, key, replacement, grep) ->
      check_parse_error ~parse name
        (with_line topo ~line:(line_of topo key) replacement)
        ~line:0 ~grep)
    [
      ("dom with 0 colours", "dom", "dom 0 0 2 0 7 3000", "at least 1 colour");
      ("dom with 0 pages", "dom", "dom 0 1 0 0 7 3000", "at least 1 colour");
      ("dom with slice 0", "dom", "dom 0 1 2 0 7 0", "at least 1 colour");
      ("dom with seed -1", "dom", "dom 0 1 2 0 -1 3000", "at least 1 colour");
      ("skip_idx -1", "skip_idx", "skip_idx -1", "must not be negative");
      ("secret_b -1", "secret_b", "secret_b -1", "must not be negative");
    ]

(* The generator must actually exercise the whole space: every machine
   preset, both BTB settings and all three oracles show up early. *)
let test_generator_coverage () =
  let scenarios = List.init 500 (Scenario.generate ~seed:42) in
  let n_presets = List.length Scenario.machine_presets in
  for p = 0 to n_presets - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "preset %d drawn" p)
      true
      (List.exists (fun s -> s.Scenario.preset = p) scenarios)
  done;
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Scenario.oracle_to_string o ^ " oracle drawn")
        true
        (List.exists (fun s -> s.Scenario.oracle = o) scenarios))
    [ Scenario.Nonint; Scenario.Capacity; Scenario.Legacy ];
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "btb=%b drawn" b)
        true
        (List.exists (fun s -> s.Scenario.btb = b) scenarios))
    [ true; false ]

(* Acceptance criterion: 10,000 seeded trials across all presets with
   zero oracle violations. *)
let test_10k_trials_no_violation () =
  Tpro_engine.Pool.with_pool (fun pool ->
      match Driver.run ~pool ~seed:42 ~trials:10_000 () with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "oracle violation without a mutant:@.%a"
          Driver.pp_failure f)

(* Acceptance criterion: each injected defence bypass is killed within
   1,000 trials, and the shrunk counterexample still fails without
   having grown. *)
let check_mutant_killed ?messages mutant =
  match Driver.first_failure ~mutant ~seed:42 ~budget:1_000 () with
  | None ->
    Alcotest.failf "%s mutant survived 1000 trials"
      (Scenario.mutant_to_string mutant)
  | Some (used, f) ->
    Alcotest.(check bool)
      (Printf.sprintf "%s killed within budget (used %d)"
         (Scenario.mutant_to_string mutant)
         used)
      true (used <= 1_000);
    let shrunk, shrunk_violation = Lazy.force f.Driver.shrunk in
    Option.iter
      (fun (message, shrunk_message) ->
        Alcotest.(check string) "violation message" message f.Driver.message;
        Alcotest.(check string) "shrunk violation message" shrunk_message
          shrunk_violation)
      messages;
    Alcotest.(check bool) "shrunk scenario did not grow" true
      (Scenario.size shrunk <= Scenario.size f.Driver.scenario);
    (match Oracle.check shrunk with
    | Oracle.Fail _ -> ()
    | Oracle.Pass -> Alcotest.fail "shrunk counterexample no longer fails");
    (* the replay file reproduces the violation *)
    let path = Filename.temp_file "tpro-fuzz-kill" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Scenario.save path shrunk;
        match Scenario.load path with
        | Ok s -> (
          match Oracle.check s with
          | Oracle.Fail _ -> ()
          | Oracle.Pass -> Alcotest.fail "replayed scenario no longer fails")
        | Error e ->
          Alcotest.failf "replay load failed: %s"
            (Scenario.load_error_to_string e))

(* The skip-flush kill's blame is pinned byte for byte — resource, secret
   pair and Lo step — so a change to Lo's view that moves any of them
   fails here, not only one that changes the lemma. *)
let test_kill_skip_flush () =
  check_mutant_killed Scenario.Skip_flush
    ~messages:
      ( "lemma flush:l1d0 refuted (secrets 2 vs 6): Lo's view component \
         flush:l1d0 differs at Lo step 47",
        "lemma flush:l1d0 refuted (secrets 0 vs 1): Lo's view component \
         flush:l1d0 differs at Lo step 28" )

(* The Legacy oracle's two skip-flush outcomes at seed 42, byte for byte:
   a silently skipped flush leaves private state a fresh machine lacks,
   and leaves dirty lines unbilled in the flush cost. *)
let test_legacy_skip_flush_pinned () =
  List.iter
    (fun (idx, message) ->
      let s = Scenario.generate ~seed:42 ~mutant:Scenario.Skip_flush idx in
      Alcotest.(check bool)
        (Printf.sprintf "index %d draws the Legacy oracle" idx)
        true
        (s.Scenario.oracle = Scenario.Legacy);
      match Oracle.check s with
      | Oracle.Fail m ->
        Alcotest.(check string) (Printf.sprintf "index %d verdict" idx) message m
      | Oracle.Pass -> Alcotest.failf "index %d: skip-flush survived" idx)
    [
      (1, "post-flush private state differs from a fresh machine");
      (3, "flush cost 201 differs from straight-line cost 363");
    ]

let test_kill_drop_padding () = check_mutant_killed Scenario.Drop_padding
let test_kill_miscolour () = check_mutant_killed Scenario.Miscolour

(* Tentpole acceptance: each mutant is killed by its *matching named
   lemma* — the noninterference oracle's failure message must name
   exactly the lemma of the composed theorem that the bypass refutes
   (skip-flush: the victim resource's [flush:] lemma; drop-padding:
   [kernel:padded-switch]; miscolour: [partition:llc]).  Every Nonint
   kill is checked, and at least three must occur within the scan. *)
let contains needle hay =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let check_lemma_kills mutant ~expect =
  let kills = ref 0 and idx = ref 0 in
  while !kills < 3 && !idx < 400 do
    let s = Scenario.generate ~seed:42 ~mutant !idx in
    (if s.Scenario.oracle = Scenario.Nonint then
       match Oracle.check s with
       | Oracle.Fail msg ->
         incr kills;
         let lemma = expect s in
         Alcotest.(check bool)
           (Printf.sprintf "%s kill (idx %d) blames lemma %s, message: %s"
              (Scenario.mutant_to_string mutant)
              !idx lemma msg)
           true
           (contains ("lemma " ^ lemma ^ " refuted") msg)
       | Oracle.Pass -> ());
    incr idx
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%s: at least 3 nonint kills within 400 scenarios"
       (Scenario.mutant_to_string mutant))
    true (!kills >= 3)

let test_lemma_skip_flush () =
  check_lemma_kills Scenario.Skip_flush ~expect:(fun s ->
      "flush:" ^ Scenario.skip_target s)

let test_lemma_drop_padding () =
  check_lemma_kills Scenario.Drop_padding ~expect:(fun _ ->
      "kernel:padded-switch")

let test_lemma_miscolour () =
  check_lemma_kills Scenario.Miscolour ~expect:(fun _ -> "partition:llc")

(* Fan-out must not change results: the pool path and the sequential
   path agree failure-for-failure (here: both empty on a clean run). *)
let test_pool_matches_sequential () =
  let seq = Driver.run ~seed:9 ~trials:64 () in
  let par =
    Tpro_engine.Pool.with_pool (fun pool ->
        Driver.run ~pool ~seed:9 ~trials:64 ())
  in
  Alcotest.(check int) "same failure count" (List.length seq)
    (List.length par)

(* ------------------------------------------------------------------ *)
(* Topology campaigns: the N-domain/M-core generalisation.             *)

let topology = Alcotest.testable Topology.pp ( = )

let test_topology_deterministic () =
  for idx = 0 to 29 do
    Alcotest.check topology
      (Printf.sprintf "generate ~seed:7 %d is stable" idx)
      (Topology.generate ~seed:7 idx)
      (Topology.generate ~seed:7 idx)
  done;
  Alcotest.(check bool) "different indices differ" true
    (Topology.generate ~seed:7 0 <> Topology.generate ~seed:7 1);
  Alcotest.(check bool) "different seeds differ" true
    (Topology.generate ~seed:7 0 <> Topology.generate ~seed:8 0)

(* The generator must actually draw multi-core, SMT, TDMA and IPC
   shapes — the whole point of the refactor. *)
let test_topology_coverage () =
  let topos = List.init 200 (Topology.generate ~seed:42) in
  let some name p =
    Alcotest.(check bool) (name ^ " drawn") true (List.exists p topos)
  in
  some "single-core" (fun t -> t.Topology.n_cores = 1);
  some "four-core" (fun t -> t.Topology.n_cores = 4);
  some "smt" (fun t -> t.Topology.smt);
  some "tdma bus" (fun t -> t.Topology.bus_slot > 0);
  some "ipc edges" (fun t -> t.Topology.ipc <> []);
  some "8 domains" (fun t -> Topology.n_domains t = 8);
  some "2 domains" (fun t -> Topology.n_domains t = 2)

let test_topology_roundtrip () =
  List.iter
    (fun mutant ->
      for idx = 0 to 19 do
        let t = Topology.generate ~seed:3 ~mutant idx in
        match Topology.of_string (Topology.to_string t) with
        | Ok t' -> Alcotest.check topology "to_string/of_string" t t'
        | Error e ->
          Alcotest.failf "of_string failed: %a" Scenario.pp_parse_error e
      done)
    [ Scenario.No_mutant; Scenario.Skip_flush; Scenario.Drop_padding;
      Scenario.Miscolour ]

(* Forward compatibility: scenario files are format 1 and still parse
   when the [format] line is absent (files written before the key
   existed); a format this build does not know is a typed error naming
   both versions; and the [Replay] loader dispatches on the line. *)
let test_format_versioning () =
  let s = Scenario.generate ~seed:11 4 in
  let text = Scenario.to_string s in
  Alcotest.(check bool) "scenario files declare format 1" true
    (contains "format 1\n" text);
  let without_format =
    String.concat "\n"
      (List.filter
         (fun l -> not (contains "format" l))
         (String.split_on_char '\n' text))
  in
  (match Scenario.of_string without_format with
  | Ok s' -> Alcotest.check scenario "pre-versioning file still parses" s s'
  | Error e ->
    Alcotest.failf "pre-versioning scenario rejected: %a"
      Scenario.pp_parse_error e);
  (match Scenario.of_string ("format 9\n" ^ without_format) with
  | Ok _ -> Alcotest.fail "alien format version parsed as a scenario"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "alien version error names versions: %s"
         e.Scenario.reason)
      true
      (contains "unsupported replay format 9" e.Scenario.reason));
  let t = Topology.generate ~seed:11 4 in
  Alcotest.(check bool) "topology files declare format 2" true
    (contains "format 2\n" (Topology.to_string t));
  (match Replay.of_string text with
  | Ok (Replay.Scenario s') ->
    Alcotest.check scenario "replay dispatch: scenario" s s'
  | Ok (Replay.Topology _) -> Alcotest.fail "scenario dispatched as topology"
  | Error e ->
    Alcotest.failf "replay dispatch failed: %a" Scenario.pp_parse_error e);
  (match Replay.of_string (Topology.to_string t) with
  | Ok (Replay.Topology t') ->
    Alcotest.check topology "replay dispatch: topology" t t'
  | Ok (Replay.Scenario _) -> Alcotest.fail "topology dispatched as scenario"
  | Error e ->
    Alcotest.failf "replay dispatch failed: %a" Scenario.pp_parse_error e);
  match Replay.of_string ("format 3\nseed 0\n") with
  | Ok _ -> Alcotest.fail "unknown format dispatched"
  | Error e ->
    Alcotest.(check bool) "dispatch error names supported versions" true
      (contains "formats 1 and 2" e.Scenario.reason)

let test_topology_file_roundtrip () =
  let t = Topology.generate ~seed:5 ~mutant:Scenario.Miscolour 2 in
  let path = Filename.temp_file "tpro-topo" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Topology.save path t;
      match Topology.load path with
      | Ok t' -> Alcotest.check topology "save/load" t t'
      | Error e ->
        Alcotest.failf "load failed: %s" (Scenario.load_error_to_string e))

(* Acceptance criterion: generated topologies under the full preset show
   zero pairwise violations from any observer domain's viewpoint. *)
let test_topologies_no_violation () =
  match
    Tpro_engine.Pool.with_pool (fun pool ->
        Driver.topo_run ~pool ~seed:42 ~trials:150 ())
  with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "pairwise violation without a mutant:@.%a"
      Driver.pp_topo_failure f

(* Each mutant must be killed on some domain pair within the budget,
   with the matching lemma named in the pair-tagged message. *)
let check_topo_mutant_killed ?message mutant ~expect =
  match Driver.topo_first_failure ~mutant ~seed:42 ~budget:1_000 () with
  | None ->
    Alcotest.failf "%s mutant survived 1000 topologies"
      (Scenario.mutant_to_string mutant)
  | Some (used, f) ->
    Option.iter
      (fun m -> Alcotest.(check string) "violation message" m f.Driver.topo_message)
      message;
    Alcotest.(check bool)
      (Printf.sprintf "%s killed within budget (used %d)"
         (Scenario.mutant_to_string mutant)
         used)
      true (used <= 1_000);
    Alcotest.(check bool)
      (Printf.sprintf "%s kill names the pair: %s"
         (Scenario.mutant_to_string mutant)
         f.Driver.topo_message)
      true
      (contains "pair (hi=" f.Driver.topo_message);
    let lemma = expect f.Driver.topology in
    Alcotest.(check bool)
      (Printf.sprintf "%s kill blames %s: %s"
         (Scenario.mutant_to_string mutant)
         lemma f.Driver.topo_message)
      true
      (contains ("lemma " ^ lemma ^ " refuted") f.Driver.topo_message);
    (* the saved file reproduces the violation through the dispatcher *)
    let path = Filename.temp_file "tpro-topo-kill" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Topology.save path f.Driver.topology;
        match Replay.load path with
        | Ok (Replay.Topology t) -> (
          match Oracle.check_topology t with
          | Oracle.Fail _ -> ()
          | Oracle.Pass -> Alcotest.fail "replayed topology no longer fails")
        | Ok (Replay.Scenario _) ->
          Alcotest.fail "topology replay dispatched as scenario"
        | Error e ->
          Alcotest.failf "replay load failed: %s"
            (Scenario.load_error_to_string e))

let test_topo_kill_skip_flush () =
  check_topo_mutant_killed Scenario.Skip_flush ~expect:(fun t ->
      "flush:" ^ Topology.skip_target t)

let test_topo_kill_drop_padding () =
  check_topo_mutant_killed Scenario.Drop_padding
    ~message:
      "pair (hi=0, lo=1): lemma kernel:padded-switch refuted (secrets 5 vs \
       7): view component kernel:clock differs at step 1"
    ~expect:(fun _ -> "kernel:padded-switch")

let test_topo_kill_miscolour () =
  match Driver.topo_first_failure ~mutant:Scenario.Miscolour ~seed:42
          ~budget:1_000 ()
  with
  | None -> Alcotest.fail "miscolour mutant survived 1000 topologies"
  | Some (_, f) ->
    Alcotest.(check string) "violation message"
      "pair (hi=0, lo=1): lemma partition:llc refuted (secrets 5 vs 7): \
       view component partition:llc differs at step 1"
      f.Driver.topo_message

(* Satellite: a hand-built 4-domain/2-core topology in which the planted
   miscolouring (domain 0's page remapped into a frame of domain 2's
   colour) leaks between exactly that domain pair.  The planted
   direction (vary 0, observer 2) is a state-level breach of 2's slice
   — the violation names the pair and the [partition:llc] lemma.  The
   reverse direction may also fail, as timing: 0's accesses to its
   miscoloured page hit sets shared with 2's lines, whose digests feed
   the latency jitter — a miscoloured mapping breaks isolation both
   ways, which is physically faithful.  What the test pins down is that
   no pair *not* involving both 0 and 2 leaks anything. *)
let test_miscolour_leaks_one_pair () =
  let dom core wseed workload =
    {
      Topology.d_core = core;
      d_colours = 1;
      d_pages = 1;
      d_workload = workload;
      d_wseed = wseed;
      d_slice = 3_000;
    }
  in
  let t =
    {
      Topology.seed = 0;
      idx = 0;
      mutant = Scenario.Miscolour;
      n_cores = 2;
      smt = false;
      btb = false;
      lat_seed = 0;
      secret_a = 1;
      secret_b = 5;
      bus_slot = 64;
      pad_extra = 0;
      domains = [| dom 0 3 0; dom 0 7 1; dom 1 11 2; dom 1 13 3 |];
      scheds = [ (0, [| 0; 1 |]); (1, [| 2; 3 |]) ];
      ipc = [];
      deep_hi = 0;
      deep_lo = 2;
      cap_dom = 1;
      cap_obs = 3;
      skip_idx = 0;
      mis_src = 0;
      mis_dst = 2;
    }
  in
  (match Oracle.check_topology_pair t ~vary:0 ~obs:2 with
  | Oracle.Pass -> Alcotest.fail "planted pair (0,2) did not leak"
  | Oracle.Fail m ->
    Alcotest.(check bool)
      (Printf.sprintf "violation names the planted pair: %s" m)
      true
      (contains "pair (hi=0, lo=2)" m);
    Alcotest.(check bool)
      (Printf.sprintf "violation blames partition:llc: %s" m)
      true
      (contains "partition:llc" m));
  (* The full pairwise sweep reports the planted pair: (0,1) is clean,
     so (0,2) is the first violation in vary-major order. *)
  (match Oracle.check_topology t with
  | Oracle.Pass -> Alcotest.fail "full sweep missed the planted pair"
  | Oracle.Fail m ->
    Alcotest.(check bool)
      (Printf.sprintf "full sweep names the planted pair: %s" m)
      true
      (contains "pair (hi=0, lo=2)" m);
    Alcotest.(check bool)
      (Printf.sprintf "full sweep blames partition:llc: %s" m)
      true
      (contains "partition:llc" m));
  List.iter
    (fun (v, o) ->
      if (v, o) <> (0, 2) && (v, o) <> (2, 0) then
        match Oracle.check_topology_pair t ~vary:v ~obs:o with
        | Oracle.Pass -> ()
        | Oracle.Fail m ->
          Alcotest.failf "pair (%d,%d) unexpectedly leaks: %s" v o m)
    (Topology.pairs t)

(* Booting a topology on a machine that already ran one of its systems
   is booting it on a fresh machine: on seed-42 topologies with 1, 2 and
   4 cores, with SMT, and under a machine fault and a kernel tweak, the
   recycled run ends with the same events, clocks, digests and thread
   traces as a fresh build. *)
let test_topology_build_recycled () =
  let module Kernel = Tpro_kernel.Kernel in
  let module Machine = Tpro_hw.Machine in
  let module Nonint = Tpro_secmodel.Nonint in
  let topos = List.init 200 (Topology.generate ~seed:42) in
  let pick what p =
    match List.find_opt p topos with
    | Some t -> (what, t)
    | None -> Alcotest.failf "no seed-42 topology with %s" what
  in
  let cases =
    [
      pick "1 core" (fun t -> t.Topology.n_cores = 1);
      pick "2 cores" (fun t -> t.Topology.n_cores = 2 && not t.Topology.smt);
      pick "4 cores" (fun t -> t.Topology.n_cores = 4 && not t.Topology.smt);
      pick "smt" (fun t -> t.Topology.smt);
      ("skip-flush", Topology.generate ~seed:42 ~mutant:Scenario.Skip_flush 3);
      ("miscolour", Topology.generate ~seed:42 ~mutant:Scenario.Miscolour 5);
    ]
  in
  List.iter
    (fun (what, t) ->
      let exec ?machine ~vary secret =
        Nonint.execute ~max_steps:(Topology.max_steps t)
          (fun ~secret -> Topology.build ?machine t ~vary ~secret)
          secret
      in
      let ending (run : Nonint.run) =
        let k = run.Nonint.kernel in
        let m = Kernel.machine k in
        let cores = List.init (Machine.n_cores m) Fun.id in
        ( Kernel.events k,
          List.map (fun core -> (Machine.now m ~core, Machine.digest_core m ~core)) cores,
          Machine.digest_shared m,
          List.concat_map Tpro_kernel.Domain.threads (Kernel.domains k) )
      in
      let machine = Machine.create (Topology.machine_config t) in
      ignore (exec ~machine ~vary:t.Topology.deep_lo t.Topology.secret_b);
      let ev_r, cores_r, shared_r, ths_r =
        ending (exec ~machine ~vary:t.Topology.deep_hi t.Topology.secret_b)
      in
      let ev_f, cores_f, shared_f, ths_f =
        ending (exec ~vary:t.Topology.deep_hi t.Topology.secret_b)
      in
      Alcotest.(check bool) (what ^ ": same events") true (ev_r = ev_f);
      Alcotest.(check bool) (what ^ ": same clocks and core digests") true
        (cores_r = cores_f);
      Alcotest.(check int64) (what ^ ": same shared digest") shared_f shared_r;
      Alcotest.(check bool) (what ^ ": same thread traces") true
        (Nonint.secure (Nonint.compare_threads ths_r ths_f)))
    cases

(* Topology fan-out must not change verdicts either. *)
let test_topo_pool_matches_sequential () =
  let seq = Driver.topo_run ~seed:9 ~trials:24 () in
  let par =
    Tpro_engine.Pool.with_pool (fun pool ->
        Driver.topo_run ~pool ~seed:9 ~trials:24 ())
  in
  Alcotest.(check int) "same failure count" (List.length seq)
    (List.length par)

(* The hardwired two-domain scenario is the trivial topology instance:
   a 2-domain/1-core draw executes, quiesces and passes the same
   pairwise oracle. *)
let test_two_domain_instance () =
  let t = Topology.generate ~seed:1 ~max_domains:2 ~max_cores:1 0 in
  Alcotest.(check int) "two domains" 2 (Topology.n_domains t);
  Alcotest.(check int) "one core" 1 t.Topology.n_cores;
  Alcotest.(check (list (pair int int)))
    "two ordered pairs"
    [ (0, 1); (1, 0) ]
    (Topology.pairs t);
  match Oracle.check_topology t with
  | Oracle.Pass -> ()
  | Oracle.Fail m -> Alcotest.failf "2-domain instance fails: %s" m

(* Under a mutant every trial fails, but only the reported failure is
   shrunk: a campaign shrinks nothing, and rendering one failure shrinks
   that one alone. *)
let test_shrink_on_render () =
  let c =
    Tpro_engine.Supervisor.with_supervisor ~domains:1 (fun sup ->
        Driver.campaign ~sup ~mutant:Scenario.Drop_padding ~seed:42 ~trials:3 ())
  in
  let shrunk () = List.map (fun f -> Lazy.is_val f.Driver.shrunk) c.Driver.failures in
  Alcotest.(check (list bool)) "campaign shrinks nothing" [ false; false; false ]
    (shrunk ());
  ignore (Format.asprintf "%a" Driver.pp_failure (List.hd c.Driver.failures));
  Alcotest.(check (list bool)) "rendering shrinks the rendered failure"
    [ true; false; false ] (shrunk ())

let suite =
  [
    Alcotest.test_case "generation is deterministic" `Quick
      test_generate_deterministic;
    Alcotest.test_case "to_string/of_string round-trip" `Quick
      test_serialisation_roundtrip;
    Alcotest.test_case "save/load round-trip" `Quick test_file_roundtrip;
    Alcotest.test_case "generator covers the space" `Quick
      test_generator_coverage;
    Alcotest.test_case "10k trials, zero oracle violations" `Slow
      test_10k_trials_no_violation;
    Alcotest.test_case "skip-flush mutant killed" `Quick test_kill_skip_flush;
    Alcotest.test_case "drop-padding mutant killed" `Quick
      test_kill_drop_padding;
    Alcotest.test_case "miscolour mutant killed" `Quick test_kill_miscolour;
    Alcotest.test_case "skip-flush blamed on flush:<victim>" `Quick
      test_lemma_skip_flush;
    Alcotest.test_case "drop-padding blamed on kernel:padded-switch" `Quick
      test_lemma_drop_padding;
    Alcotest.test_case "miscolour blamed on partition:llc" `Quick
      test_lemma_miscolour;
    Alcotest.test_case "pool fan-out matches sequential" `Quick
      test_pool_matches_sequential;
    Alcotest.test_case "topology generation is deterministic" `Quick
      test_topology_deterministic;
    Alcotest.test_case "topology generator covers the space" `Quick
      test_topology_coverage;
    Alcotest.test_case "topology format-2 round-trip" `Quick
      test_topology_roundtrip;
    Alcotest.test_case "replay format versioning and dispatch" `Quick
      test_format_versioning;
    Alcotest.test_case "topology save/load round-trip" `Quick
      test_topology_file_roundtrip;
    Alcotest.test_case "150 topologies, zero pairwise violations" `Slow
      test_topologies_no_violation;
    Alcotest.test_case "topo skip-flush killed, flush:<target> blamed" `Quick
      test_topo_kill_skip_flush;
    Alcotest.test_case "topo drop-padding killed, padded-switch blamed"
      `Quick test_topo_kill_drop_padding;
    Alcotest.test_case "topo miscolour killed on a named pair" `Quick
      test_topo_kill_miscolour;
    Alcotest.test_case "miscolour leaks between exactly one pair" `Quick
      test_miscolour_leaks_one_pair;
    Alcotest.test_case "topology build on a recycled machine" `Quick
      test_topology_build_recycled;
    Alcotest.test_case "topology pool fan-out matches sequential" `Quick
      test_topo_pool_matches_sequential;
    Alcotest.test_case "2-domain topology is the legacy instance" `Quick
      test_two_domain_instance;
    Alcotest.test_case "legacy oracle's skip-flush verdicts pinned" `Quick
      test_legacy_skip_flush_pinned;
    Alcotest.test_case "replay parse errors are typed" `Quick
      test_parse_errors_typed;
    Alcotest.test_case "only a rendered failure is shrunk" `Quick
      test_shrink_on_render;
  ]
