(* Benchmark harness.

   Part 1 regenerates every experiment table of DESIGN.md (the rows the
   paper reproduction reports) and prints them.

   Part 2 (with part 8 folded in) benchmarks the parallel trial
   engine: the full experiment suite sequentially vs. fanned out over
   the *calibrated* pool (the configuration a flagless user gets — 1
   domain on a 1-core container, so the headline speedup must sit at
   ~1.0 there), per-table sequential and parallel times, a forced
   -j 1/2/4 scaling curve with task counts, and the calibration
   decision itself (cores detected, domains chosen, minor-heap
   sizing).  Every run is checked bit-identical to sequential and the
   whole thing is written as BENCH_parallel.json schema v3 so perf
   regressions are attributable across PRs.
   [--require-speedup-1core T] makes the run fail when calibration
   reports 1 core and the calibrated speedup falls below T (the CI
   oversubscription guard).

   Part 3 is a Bechamel suite: one [Test.make] per experiment table
   (measuring the cost of regenerating it with a reduced trial count)
   plus micro-benchmarks of the substrate primitives the simulator is
   built from.  Results are printed as OLS time-per-run estimates and
   folded into the JSON.

   Part 4 benchmarks the supervision layer: the same E-table sweep
   through [Experiments.run_supervised] vs. the raw [all_par] fan-out
   (the price of settling every task as a result), plus the retry path
   (a [Raise_once] fault on one table's task, so the cost of one
   recovery is measured directly).  Written to BENCH_supervisor.json;
   runs in [--smoke] too.

   Part 5 benchmarks the flat-state digest layer: for every resource
   kind an incremental-vs-fold Bechamel pair (the memoised digest the
   hot path now reads vs. the historical from-scratch fold), plus the
   O(1) clean-flush path and the dirty store+flush pair, written to
   BENCH_flatstate.json together with the E-table seconds and the
   committed pre-flat-state baselines.  This part runs in [--smoke] too:
   it is the CI perf-regression guard's input, and
   [--budget-cache-digest-ns N] makes the run itself fail when the
   incremental cache digest exceeds the budget (0 disables).

   Part 6 benchmarks the composed-theorem prover: the per-kind
   exhaustive lemma checks and one seed's evidence collection
   individually, and the full [Prove.run] derivation sequentially vs.
   fanned over the supervisor ([-j N]), asserting the rendered theorems
   are bit-identical.  Written to BENCH_prove.json; runs in [--smoke]
   too.

   Part 7 benchmarks the topology campaigns: generated N-domain/M-core
   systems at three (max-domains, max-cores) bounds, timing the full
   pairwise-oracle check per topology — topologies/sec and the cost per
   ordered domain pair, written to BENCH_topology.json.  Runs in
   [--smoke] too, and fails the run if a clean campaign reports any
   pairwise violation.

   Flags: [-j N] pool size, [--seeds 0,1,...] trial seeds,
   [--json PATH] output path, [--supervisor-json PATH] supervision
   bench output, [--flatstate-json PATH] flat-state bench output,
   [--prove-json PATH] theorem-prover bench output,
   [--budget-cache-digest-ns N] perf budget, [--smoke] reduced CI run
   (tables + full bechamel skipped; seq-vs-par, supervision,
   flat-state and prover parts kept). *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)

let jobs = ref (Tpro_engine.Pool.recommended ())
let seeds = ref [ 0; 1 ]
let json_path = ref "BENCH_parallel.json"
let sup_json_path = ref "BENCH_supervisor.json"
let flat_json_path = ref "BENCH_flatstate.json"
let prove_json_path = ref "BENCH_prove.json"
let topo_json_path = ref "BENCH_topology.json"
let budget_cache_digest_ns = ref 0.0
let require_speedup_1core = ref 0.0
let smoke = ref false

let parse_seeds s =
  match List.map int_of_string (String.split_on_char ',' s) with
  | l -> seeds := l
  | exception _ ->
    raise (Arg.Bad (Printf.sprintf "--seeds: %S is not a comma-separated list of integers" s))

let () =
  Arg.parse
    [
      ("-j", Arg.Set_int jobs, "N  domains for the parallel engine");
      ("--seeds", Arg.String parse_seeds, "S  comma-separated trial seeds");
      ("--json", Arg.Set_string json_path, "PATH  where to write the JSON");
      ( "--supervisor-json",
        Arg.Set_string sup_json_path,
        "PATH  where to write the supervision-overhead JSON" );
      ( "--flatstate-json",
        Arg.Set_string flat_json_path,
        "PATH  where to write the flat-state digest bench JSON" );
      ( "--prove-json",
        Arg.Set_string prove_json_path,
        "PATH  where to write the theorem-prover bench JSON" );
      ( "--topology-json",
        Arg.Set_string topo_json_path,
        "PATH  where to write the topology-campaign bench JSON" );
      ( "--budget-cache-digest-ns",
        Arg.Set_float budget_cache_digest_ns,
        "N  fail the run if the incremental cache digest exceeds N ns/run \
         (0 disables; the CI perf-regression guard)" );
      ( "--require-speedup-1core",
        Arg.Set_float require_speedup_1core,
        "T  fail the run if calibration reports 1 core and the calibrated \
         speedup falls below T (0 disables; the CI oversubscription guard)" );
      ("--smoke", Arg.Set smoke, "  reduced run for CI (skips part 1 and 3)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [-j N] [--seeds 0,1] [--json PATH] [--smoke]"

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate the tables                                       *)

let regenerate_tables () =
  Format.printf "=== Experiment tables (paper reproduction) ===@.@.";
  List.iter
    (fun t -> Format.printf "%a@." Time_protection.Table.render t)
    (Time_protection.Experiments.all ())

(* ------------------------------------------------------------------ *)
(* Part 2: sequential vs. parallel engine                              *)

let time_wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One forced pool size on the scaling curve (part 8). *)
type curve_point = {
  cp_j : int;
  cp_seconds : float;
  cp_speedup : float;
  cp_steals : int;
  cp_executed : int;
  cp_identical : bool;
}

type par_bench = {
  cores : int;  (** cores the calibration probe detected *)
  domains : int;  (** calibrated domain count, used for the headline run *)
  minor_heap_words : int;
  probe_note : string;
  bench_seeds : int list;
  seq_seconds : float;
  par_seconds : float;  (** full suite over the calibrated pool *)
  speedup : float;
  identical : bool;  (** headline run and every curve point vs sequential *)
  per_table_seq : (string * float) list;
  per_table_par : (string * float) list;
  curve : curve_point list;
  steals : int;
  executed : int;
  injected : int;
}

(* The headline numbers use the *calibrated* pool — the configuration a
   user gets without flags.  On a 1-core container calibration picks 1
   domain, the pool runs sequentially, and the speedup must sit at
   ~1.0 (PR 1's committed 0.17 was a 4-domain pool fighting one core).
   The forced -j 1/2/4 curve shows what oversubscription costs and
   what real cores buy, with task counts for attribution (the steal
   counts stay in the schema and read 0: the pool claims items, it
   never steals). *)
let bench_parallel () =
  let seeds = !seeds in
  let host = Tpro_engine.Calibrate.host () in
  let tables_seq, seq_seconds =
    time_wall (fun () -> Time_protection.Experiments.all ~seeds ())
  in
  let pool = Tpro_engine.Pool.create () in
  let tables_par, par_seconds =
    time_wall (fun () -> Time_protection.Experiments.all_par ~seeds ~pool ())
  in
  let per_table =
    List.filter_map
      (fun id ->
        match Time_protection.Experiments.by_id id with
        | None -> None
        | Some f ->
          let _, dseq = time_wall (fun () -> f ~seeds ()) in
          let _, dpar = time_wall (fun () -> f ~seeds ~pool ()) in
          Some (id, dseq, dpar))
      Time_protection.Experiments.ids
  in
  let stats = Tpro_engine.Pool.stats pool in
  Tpro_engine.Pool.shutdown pool;
  let curve =
    List.map
      (fun j ->
        let p = Tpro_engine.Pool.create ~domains:j () in
        let tabs, dt =
          time_wall (fun () ->
              Time_protection.Experiments.all_par ~seeds ~pool:p ())
        in
        let st = Tpro_engine.Pool.stats p in
        Tpro_engine.Pool.shutdown p;
        {
          cp_j = j;
          cp_seconds = dt;
          cp_speedup = seq_seconds /. dt;
          cp_steals = st.Tpro_engine.Pool.steals;
          cp_executed = st.Tpro_engine.Pool.tasks_executed;
          cp_identical = tabs = tables_seq;
        })
      [ 1; 2; 4 ]
  in
  ( {
      cores = host.Tpro_engine.Calibrate.cores_detected;
      domains = host.Tpro_engine.Calibrate.recommended;
      minor_heap_words = host.Tpro_engine.Calibrate.minor_heap_words;
      probe_note = host.Tpro_engine.Calibrate.probe_note;
      bench_seeds = seeds;
      seq_seconds;
      par_seconds;
      speedup = seq_seconds /. par_seconds;
      identical =
        tables_seq = tables_par
        && List.for_all (fun c -> c.cp_identical) curve;
      per_table_seq = List.map (fun (id, s, _) -> (id, s)) per_table;
      per_table_par = List.map (fun (id, _, p) -> (id, p)) per_table;
      curve;
      steals = stats.Tpro_engine.Pool.steals;
      executed = stats.Tpro_engine.Pool.tasks_executed;
      injected = stats.Tpro_engine.Pool.tasks_injected;
    },
    tables_par )

let print_par_bench b =
  Format.printf
    "=== Parallel trial engine: full suite, seq vs. par ===@.@.";
  Format.printf "  cores detected:              %d@." b.cores;
  Format.printf "  calibrated domains:          %d  (%s)@." b.domains
    b.probe_note;
  Format.printf "  minor heap (words):          %d@." b.minor_heap_words;
  Format.printf "  seeds:                       [%s]@."
    (String.concat "," (List.map string_of_int b.bench_seeds));
  Format.printf "  sequential:                  %.3f s@." b.seq_seconds;
  Format.printf "  parallel (calibrated):       %.3f s@." b.par_seconds;
  Format.printf "  speedup:                     %.2fx@." b.speedup;
  Format.printf "  steals/executed/injected:    %d/%d/%d@." b.steals
    b.executed b.injected;
  List.iter
    (fun c ->
      Format.printf
        "  forced -j %d:                 %.3f s (%.2fx, %d steals)@." c.cp_j
        c.cp_seconds c.cp_speedup c.cp_steals)
    b.curve;
  Format.printf "  outputs bit-identical:       %b@.@." b.identical

(* ------------------------------------------------------------------ *)
(* JSON emission (no external dependency)                              *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path b micro =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"tpro-bench-parallel/3\",\n";
  p "  \"calibration\": {\n";
  p "    \"cores_detected\": %d,\n" b.cores;
  p "    \"domains_chosen\": %d,\n" b.domains;
  p "    \"minor_heap_words\": %d,\n" b.minor_heap_words;
  p "    \"probe_note\": \"%s\"\n" (json_escape b.probe_note);
  p "  },\n";
  p "  \"seeds\": [%s],\n"
    (String.concat ", " (List.map string_of_int b.bench_seeds));
  p "  \"sequential_seconds\": %.6f,\n" b.seq_seconds;
  p "  \"parallel_seconds\": %.6f,\n" b.par_seconds;
  p "  \"speedup\": %.4f,\n" b.speedup;
  p "  \"outputs_bit_identical\": %b,\n" b.identical;
  p "  \"scheduler\": {\n";
  p "    \"steals\": %d,\n" b.steals;
  p "    \"tasks_executed\": %d,\n" b.executed;
  p "    \"tasks_injected\": %d\n" b.injected;
  p "  },\n";
  p "  \"scaling_curve\": {\n";
  let n = List.length b.curve in
  List.iteri
    (fun i c ->
      p
        "    \"j%d\": { \"seconds\": %.6f, \"speedup\": %.4f, \"steals\": \
         %d, \"tasks_executed\": %d, \"identical\": %b }%s\n"
        c.cp_j c.cp_seconds c.cp_speedup c.cp_steals c.cp_executed
        c.cp_identical
        (if i = n - 1 then "" else ","))
    b.curve;
  p "  },\n";
  p "  \"per_table_seconds\": {\n";
  let n = List.length b.per_table_seq in
  List.iteri
    (fun i (id, dseq) ->
      let dpar =
        Option.value (List.assoc_opt id b.per_table_par) ~default:nan
      in
      p
        "    \"%s\": { \"sequential\": %.6f, \"parallel\": %.6f, \
         \"speedup\": %.4f }%s\n"
        (json_escape id) dseq dpar (dseq /. dpar)
        (if i = n - 1 then "" else ","))
    b.per_table_seq;
  p "  },\n";
  p "  \"microbench_ns_per_run\": {\n";
  let n = List.length micro in
  List.iteri
    (fun i (name, ns) ->
      p "    \"%s\": %.2f%s\n" (json_escape name) ns
        (if i = n - 1 then "" else ","))
    micro;
  p "  }\n";
  p "}\n";
  close_out oc;
  Format.printf "wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Part 4: supervision overhead                                        *)

module Supervisor = Tpro_engine.Supervisor

type sup_bench = {
  sup_domains : int;
  raw_seconds : float;  (** all_par from part 2, same seeds *)
  supervised_seconds : float;  (** run_supervised, full sweep *)
  overhead_ratio : float;  (** supervised / raw *)
  sup_identical : bool;  (** supervised tables == raw tables *)
  clean_e2_seconds : float;
  retry_e2_seconds : float;  (** e2 with a Raise_once fault on its task *)
  retry_cost_seconds : float;
}

let bench_supervisor ~raw_seconds ~raw_tables =
  let seeds = !seeds and domains = max 1 !jobs in
  let supervised_run ?fault only =
    Supervisor.with_supervisor ~domains ?fault (fun sup ->
        Time_protection.Experiments.run_supervised ~seeds ~sup ?only ())
  in
  let sweep, supervised_seconds = time_wall (fun () -> supervised_run None) in
  let sup_tables =
    List.filter_map
      (fun (_, r) -> match r with Ok t -> Some t | Error _ -> None)
      sweep.Time_protection.Experiments.tables
  in
  let _, clean_e2_seconds =
    time_wall (fun () -> supervised_run (Some [ "e2" ]))
  in
  (* run_supervised keys tasks by position in the selected list, so the
     single e2 task has key 0: Raise_once hits it and forces exactly one
     retry — the measured delta is the price of one recovery. *)
  let retry_sweep, retry_e2_seconds =
    time_wall (fun () ->
        supervised_run ~fault:(Supervisor.Raise_once { key = 0 })
          (Some [ "e2" ]))
  in
  let retried =
    List.for_all
      (fun (_, r) -> Result.is_ok r)
      retry_sweep.Time_protection.Experiments.tables
  in
  {
    sup_domains = domains;
    raw_seconds;
    supervised_seconds;
    overhead_ratio = supervised_seconds /. raw_seconds;
    sup_identical = (sup_tables = raw_tables) && retried;
    clean_e2_seconds;
    retry_e2_seconds;
    retry_cost_seconds = retry_e2_seconds -. clean_e2_seconds;
  }

let print_sup_bench b =
  Format.printf "=== Supervision layer: settled results vs. raw fan-out ===@.@.";
  Format.printf "  pool size (-j):              %d@." b.sup_domains;
  Format.printf "  raw all_par:                 %.3f s@." b.raw_seconds;
  Format.printf "  supervised sweep:            %.3f s@." b.supervised_seconds;
  Format.printf "  overhead:                    %.2fx@." b.overhead_ratio;
  Format.printf "  e2 clean:                    %.3f s@." b.clean_e2_seconds;
  Format.printf "  e2 with one retry:           %.3f s@." b.retry_e2_seconds;
  Format.printf "  retry-path cost:             %.3f s@." b.retry_cost_seconds;
  Format.printf "  outputs bit-identical:       %b@.@." b.sup_identical

let write_sup_json path b =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"tpro-bench-supervisor/1\",\n";
  p "  \"domains\": %d,\n" b.sup_domains;
  p "  \"raw_all_par_seconds\": %.6f,\n" b.raw_seconds;
  p "  \"supervised_sweep_seconds\": %.6f,\n" b.supervised_seconds;
  p "  \"overhead_ratio\": %.4f,\n" b.overhead_ratio;
  p "  \"e2_clean_seconds\": %.6f,\n" b.clean_e2_seconds;
  p "  \"e2_one_retry_seconds\": %.6f,\n" b.retry_e2_seconds;
  p "  \"retry_cost_seconds\": %.6f,\n" b.retry_cost_seconds;
  p "  \"outputs_bit_identical\": %b\n" b.sup_identical;
  p "}\n";
  close_out oc;
  Format.printf "wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Part 3: Bechamel suite                                              *)

let bench_seeds = [ 0; 1 ]

let experiment_tests =
  List.filter_map
    (fun id ->
      match Time_protection.Experiments.by_id id with
      | None -> None
      | Some f ->
        Some
          (Test.make ~name:("table:" ^ id)
             (Staged.stage (fun () -> ignore (f ~seeds:bench_seeds ())))))
    Time_protection.Experiments.ids

(* Substrate micro-benchmarks. *)

let cache_access_test =
  let open Tpro_hw in
  let c = Cache.create (Cache.geometry ~sets:1024 ~ways:8 ~line_bits:6 ()) in
  let i = ref 0 in
  Test.make ~name:"hw:cache-access"
    (Staged.stage (fun () ->
         incr i;
         ignore (Cache.access c ~owner:0 ~write:false (!i * 8191 land 0xFFFFF))))

let cache_digest_test =
  let open Tpro_hw in
  let c = Cache.create (Cache.geometry ~sets:64 ~ways:4 ~line_bits:6 ()) in
  for i = 0 to 255 do
    ignore (Cache.access c ~owner:0 ~write:(i land 1 = 0) (i * 64))
  done;
  Test.make ~name:"hw:cache-digest"
    (Staged.stage (fun () -> ignore (Cache.digest c)))

let machine_load_test =
  let open Tpro_hw in
  let m = Machine.create Machine.default_config in
  let i = ref 0 in
  Test.make ~name:"hw:machine-load"
    (Staged.stage (fun () ->
         incr i;
         ignore
           (Machine.load m ~core:0 ~asid:1 ~domain:0
              ~translate:(fun vpn -> Some (vpn land 0x3FF))
              ~pc:(!i * 4)
              (!i * 4099 land 0xFFFFF))))

let flush_test =
  let open Tpro_hw in
  let m = Machine.create Machine.default_config in
  Test.make ~name:"hw:flush-core-local"
    (Staged.stage (fun () ->
         ignore
           (Machine.store m ~core:0 ~asid:1 ~domain:0
              ~translate:(fun vpn -> Some (vpn land 0x3FF))
              ~pc:0 0x1000);
         ignore (Machine.flush_core_local m ~core:0)))

let kernel_step_test =
  let open Tpro_kernel in
  Test.make ~name:"kernel:boot+1000-steps"
    (Staged.stage (fun () ->
         let k = Kernel.create Kernel.config_full in
         let d0 = Kernel.create_domain k ~slice:5_000 ~pad_cycles:9_000 () in
         let d1 = Kernel.create_domain k ~slice:5_000 ~pad_cycles:9_000 () in
         Kernel.map_region k d0 ~vbase:0x20000000 ~pages:2;
         ignore
           (Kernel.spawn k d0
              (Array.append
                 (Array.init 400 (fun i ->
                      Program.Load (0x20000000 + (i * 64 mod 8192))))
                 [| Program.Halt |]));
         ignore (Kernel.spawn k d1 (Array.make 400 (Program.Compute 10)));
         Kernel.run ~max_steps:1_000 k))

let capacity_test =
  let samples =
    List.concat_map
      (fun s -> List.init 16 (fun i -> (s, (s * 3) + (i mod 4))))
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  Test.make ~name:"analysis:blahut-arimoto"
    (Staged.stage (fun () -> ignore (Tpro_channel.Capacity.of_samples samples)))

let nonint_pair_test =
  let build ~secret =
    Time_protection.Ni_scenario.build ~cfg:Time_protection.Presets.full
      ~seed:0 ~secret
  in
  Test.make ~name:"proofs:two-run-NI"
    (Staged.stage (fun () ->
         let open Tpro_secmodel.Nonint in
         ignore (compare_runs (execute build 0) (execute build 1))))

let micro_tests =
  [
    cache_access_test;
    cache_digest_test;
    machine_load_test;
    flush_test;
    kernel_step_test;
    capacity_test;
    nonint_pair_test;
  ]

(* Runs the suite and returns (name, ns-per-run) rows for the JSON. *)
let run_bechamel ?(header = "Bechamel micro/table benchmarks") tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"tpro" tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  let rows = List.sort compare rows in
  Format.printf "=== %s (time per run) ===@.@." header;
  Format.printf "  %-32s %14s %8s@." "benchmark" "time/run" "r^2";
  List.filter_map
    (fun (name, o) ->
      let time_ns =
        match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> nan
      in
      let pretty =
        if time_ns >= 1e9 then Printf.sprintf "%.3f s" (time_ns /. 1e9)
        else if time_ns >= 1e6 then Printf.sprintf "%.3f ms" (time_ns /. 1e6)
        else if time_ns >= 1e3 then Printf.sprintf "%.3f us" (time_ns /. 1e3)
        else Printf.sprintf "%.1f ns" time_ns
      in
      let r2 =
        match Analyze.OLS.r_square o with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "-"
      in
      Format.printf "  %-32s %14s %8s@." name pretty r2;
      if Float.is_nan time_ns then None else Some (name, time_ns))
    rows

(* ------------------------------------------------------------------ *)
(* Part 5: flat-state digest layer (incremental vs. from-scratch fold) *)

(* Committed pre-flat-state numbers (BENCH_parallel.json at the parent
   commit, same container class): the "before" this PR is measured
   against. *)
let baseline_cache_digest_ns = 11393.63
let baseline_flush_dirty_ns = 55977.07
let baseline_e7_seconds = 5.896419

(* One warmed structure per resource kind, each benched twice: the
   memoised [digest] the hot path now reads, and the historical
   from-scratch [digest_fold].  Shapes match the part-3 baselines where
   one exists (the 64x4 warmed cache is exactly the old hw:cache-digest
   subject; the dirty store+flush pair is the old hw:flush-core-local). *)
let flatstate_tests () =
  let open Tpro_hw in
  let pair name incr fold =
    [
      Test.make ~name:("hw:digest-incremental:" ^ name) (Staged.stage incr);
      Test.make ~name:("hw:digest-fold:" ^ name) (Staged.stage fold);
    ]
  in
  let l1 = Cache.create (Cache.geometry ~sets:64 ~ways:4 ~line_bits:6 ()) in
  for i = 0 to 255 do
    ignore (Cache.access l1 ~owner:0 ~write:(i land 1 = 0) (i * 64))
  done;
  let llc = Cache.create (Cache.geometry ~sets:1024 ~ways:8 ~line_bits:6 ()) in
  for i = 0 to 8191 do
    ignore (Cache.access llc ~owner:0 ~write:(i land 3 = 0) (i * 64))
  done;
  let tlb = Tlb.create ~capacity:32 in
  for i = 0 to 63 do
    Tlb.insert tlb ~asid:(i land 3) ~vpn:i ~pfn:(i * 7 land 0xFF)
  done;
  let bp = Bpred.create () in
  for i = 0 to 4095 do
    ignore (Bpred.update bp ~pc:(i * 4) ~taken:(i land 3 <> 0))
  done;
  let btb = Btb.create ~entries:64 () in
  for i = 0 to 255 do
    Btb.update btb ~pc:(i * 4) ~target:(i * 16)
  done;
  let pf = Prefetch.create () in
  for i = 0 to 255 do
    ignore (Prefetch.observe pf ~pc:(i land 7 * 4) ~addr:(i * 64))
  done;
  let m = Machine.create Machine.default_config in
  for i = 0 to 1023 do
    ignore
      (Machine.touch_paddr m ~core:0 ~owner:0 ~write:(i land 3 = 0)
         (i * 4099 land 0xFFFFF));
    ignore (Machine.branch m ~core:0 ~pc:(i land 63 * 4) ~taken:(i land 1 = 0))
  done;
  let clean = Machine.create Machine.default_config in
  ignore (Machine.flush_core_local clean ~core:0);
  let dirty = Machine.create Machine.default_config in
  pair "cache" (fun () -> ignore (Cache.digest l1)) (fun () -> ignore (Cache.digest_fold l1))
  @ pair "llc" (fun () -> ignore (Cache.digest llc)) (fun () -> ignore (Cache.digest_fold llc))
  @ pair "tlb" (fun () -> ignore (Tlb.digest tlb)) (fun () -> ignore (Tlb.digest_fold tlb))
  @ pair "bpred" (fun () -> ignore (Bpred.digest bp)) (fun () -> ignore (Bpred.digest_fold bp))
  @ pair "btb" (fun () -> ignore (Btb.digest btb)) (fun () -> ignore (Btb.digest_fold btb))
  @ pair "prefetch" (fun () -> ignore (Prefetch.digest pf)) (fun () -> ignore (Prefetch.digest_fold pf))
  @ pair "machine-core"
      (fun () -> ignore (Machine.digest_core m ~core:0))
      (fun () -> ignore (Machine.digest_core_fold m ~core:0))
  @ [
      Test.make ~name:"hw:flush-clean"
        (Staged.stage (fun () ->
             ignore (Machine.flush_core_local clean ~core:0)));
      Test.make ~name:"hw:flush-dirty"
        (Staged.stage (fun () ->
             ignore
               (Machine.store dirty ~core:0 ~asid:1 ~domain:0
                  ~translate:(fun vpn -> Some (vpn land 0x3FF))
                  ~pc:0 0x1000);
             ignore (Machine.flush_core_local dirty ~core:0)));
    ]

type flat_bench = {
  kinds : (string * float * float) list;  (** kind, fold ns, incremental ns *)
  flush_clean_ns : float;
  flush_dirty_ns : float;
  flat_e7_seconds : float;
  flat_e_table : (string * float) list;
  flat_identical : bool;
}

let bench_flatstate (par : par_bench) =
  let rows = run_bechamel ~header:"Flat-state digests: incremental vs. fold" (flatstate_tests ()) in
  let ns name = match List.assoc_opt ("tpro/hw:" ^ name) rows with
    | Some v -> v
    | None -> nan
  in
  let kinds =
    List.map
      (fun k -> (k, ns ("digest-fold:" ^ k), ns ("digest-incremental:" ^ k)))
      [ "cache"; "llc"; "tlb"; "bpred"; "btb"; "prefetch"; "machine-core" ]
  in
  {
    kinds;
    flush_clean_ns = ns "flush-clean";
    flush_dirty_ns = ns "flush-dirty";
    flat_e7_seconds =
      Option.value (List.assoc_opt "e7" par.per_table_seq) ~default:nan;
    flat_e_table = par.per_table_seq;
    flat_identical = par.identical;
  }

let incr_cache_digest_ns b =
  match List.find_opt (fun (k, _, _) -> k = "cache") b.kinds with
  | Some (_, _, incr) -> incr
  | None -> nan

let print_flat_bench b =
  Format.printf "=== Flat-state digest layer vs. committed baselines ===@.@.";
  Format.printf "  %-14s %12s %12s %9s@." "resource" "fold ns" "incr ns"
    "speedup";
  List.iter
    (fun (k, fold, incr) ->
      Format.printf "  %-14s %12.1f %12.1f %8.1fx@." k fold incr (fold /. incr))
    b.kinds;
  Format.printf "  clean flush:                 %.1f ns@." b.flush_clean_ns;
  Format.printf "  dirty store+flush:           %.1f ns (baseline %.1f)@."
    b.flush_dirty_ns baseline_flush_dirty_ns;
  Format.printf "  cache digest vs baseline:    %.1fx (%.1f -> %.1f ns)@."
    (baseline_cache_digest_ns /. incr_cache_digest_ns b)
    baseline_cache_digest_ns (incr_cache_digest_ns b);
  Format.printf "  e7 sequential:               %.3f s (baseline %.3f, %.1fx)@."
    b.flat_e7_seconds baseline_e7_seconds
    (baseline_e7_seconds /. b.flat_e7_seconds);
  Format.printf "  outputs bit-identical:       %b@.@." b.flat_identical

let write_flat_json path b =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"tpro-bench-flatstate/1\",\n";
  p "  \"baseline\": {\n";
  p "    \"cache_digest_ns\": %.2f,\n" baseline_cache_digest_ns;
  p "    \"flush_core_local_ns\": %.2f,\n" baseline_flush_dirty_ns;
  p "    \"e7_sequential_seconds\": %.6f\n" baseline_e7_seconds;
  p "  },\n";
  p "  \"digest_ns_per_run\": {\n";
  let n = List.length b.kinds in
  List.iteri
    (fun i (k, fold, incr) ->
      p
        "    \"%s\": { \"fold\": %.2f, \"incremental\": %.2f, \"speedup\": \
         %.2f }%s\n"
        (json_escape k) fold incr (fold /. incr)
        (if i = n - 1 then "" else ","))
    b.kinds;
  p "  },\n";
  p "  \"flush_clean_ns\": %.2f,\n" b.flush_clean_ns;
  p "  \"flush_dirty_ns\": %.2f,\n" b.flush_dirty_ns;
  p "  \"e7_sequential_seconds\": %.6f,\n" b.flat_e7_seconds;
  p "  \"e_table_seconds\": {\n";
  let n = List.length b.flat_e_table in
  List.iteri
    (fun i (id, dt) ->
      p "    \"%s\": %.6f%s\n" (json_escape id) dt
        (if i = n - 1 then "" else ","))
    b.flat_e_table;
  p "  },\n";
  p "  \"headline\": {\n";
  p "    \"cache_digest_speedup_vs_baseline\": %.2f,\n"
    (baseline_cache_digest_ns /. incr_cache_digest_ns b);
  p "    \"flush_speedup_vs_baseline\": %.2f,\n"
    (baseline_flush_dirty_ns /. b.flush_dirty_ns);
  p "    \"e7_speedup_vs_baseline\": %.2f\n"
    (baseline_e7_seconds /. b.flat_e7_seconds);
  p "  },\n";
  p "  \"outputs_bit_identical\": %b\n" b.flat_identical;
  p "}\n";
  close_out oc;
  Format.printf "wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Part 6: composed-theorem prover                                      *)

type prove_bench = {
  prove_domains : int;
  lemma_kind_seconds : (string * float) list;
      (** per-kind exhaustive small-model lemma cost *)
  collect_seconds : float;  (** one seed's full evidence collection *)
  prove_seq_seconds : float;  (** Prove.run on 1 domain *)
  prove_par_seconds : float;  (** Prove.run on -j domains *)
  prove_speedup : float;
  prove_identical : bool;  (** rendered theorems bit-identical *)
  prove_holds : bool;  (** the full preset's theorem holds *)
}

let bench_prove () =
  let domains = max 1 !jobs in
  let seeds = [ 0; 1 ] and secrets = [ 0; 1 ] in
  let cfg = Time_protection.Presets.full in
  let presets = [ ("full", cfg) ] in
  let acknowledge = [ "memory interconnect" ] in
  let run_with n =
    Supervisor.with_supervisor ~domains:n (fun sup ->
        Time_protection.Prove.run ~sup ~acknowledge ~seeds ~secrets ~presets ())
  in
  let o_seq, prove_seq_seconds = time_wall (fun () -> run_with 1) in
  let o_par, prove_par_seconds = time_wall (fun () -> run_with domains) in
  let render o =
    String.concat "\n"
      (List.map
         (fun r -> Format.asprintf "%a" Time_protection.Prove.pp_report r)
         o.Time_protection.Prove.reports)
  in
  let _, collect_seconds =
    time_wall (fun () ->
        ignore
          (Tpro_secmodel.Theorem.collect ~seed:0
             ~build:(fun ~secret ->
               Time_protection.Ni_scenario.build_with ~with_btb:true ~cfg
                 ~seed:0 ~secret)
             ~secrets ()))
  in
  let machine =
    Tpro_hw.Machine.create
      (Time_protection.Ni_scenario.machine_config_with ~with_btb:true ~seed:0)
  in
  let lemma_kind_seconds =
    List.map
      (fun ku ->
        let _, dt =
          time_wall (fun () ->
              ignore
                (Tpro_secmodel.Exhaustive.check
                   ~build:(fun ~hi_prog ~seed ->
                     Time_protection.Ni_scenario.build_with_program_on
                       ~with_btb:true ~cfg ~seed ~hi_prog)
                   ku.Tpro_secmodel.Exhaustive.ku_universe))
        in
        (ku.Tpro_secmodel.Exhaustive.ku_label, dt))
      (Tpro_secmodel.Exhaustive.kind_universes ~machine ())
  in
  {
    prove_domains = domains;
    lemma_kind_seconds;
    collect_seconds;
    prove_seq_seconds;
    prove_par_seconds;
    prove_speedup = prove_seq_seconds /. prove_par_seconds;
    prove_identical = render o_seq = render o_par;
    prove_holds =
      List.for_all
        (fun r ->
          r.Time_protection.Prove.theorem.Tpro_secmodel.Theorem.holds)
        o_seq.Time_protection.Prove.reports;
  }

let print_prove_bench b =
  Format.printf
    "=== Composed-theorem prover: supervised derivation ===@.@.";
  Format.printf "  pool size (-j):              %d@." b.prove_domains;
  List.iter
    (fun (k, dt) ->
      Format.printf "  exhaustive:%-17s %.3f s@." k dt)
    b.lemma_kind_seconds;
  Format.printf "  evidence, one seed:          %.3f s@." b.collect_seconds;
  Format.printf "  Prove.run sequential:        %.3f s@." b.prove_seq_seconds;
  Format.printf "  Prove.run parallel:          %.3f s@." b.prove_par_seconds;
  Format.printf "  speedup:                     %.2fx@." b.prove_speedup;
  Format.printf "  theorems bit-identical:      %b@." b.prove_identical;
  Format.printf "  full-preset theorem holds:   %b@.@." b.prove_holds

let write_prove_json path b =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"tpro-bench-prove/1\",\n";
  p "  \"domains\": %d,\n" b.prove_domains;
  p "  \"exhaustive_kind_seconds\": {\n";
  let n = List.length b.lemma_kind_seconds in
  List.iteri
    (fun i (k, dt) ->
      p "    \"%s\": %.6f%s\n" (json_escape k) dt
        (if i = n - 1 then "" else ","))
    b.lemma_kind_seconds;
  p "  },\n";
  p "  \"collect_one_seed_seconds\": %.6f,\n" b.collect_seconds;
  p "  \"prove_sequential_seconds\": %.6f,\n" b.prove_seq_seconds;
  p "  \"prove_parallel_seconds\": %.6f,\n" b.prove_par_seconds;
  p "  \"speedup\": %.4f,\n" b.prove_speedup;
  p "  \"theorems_bit_identical\": %b,\n" b.prove_identical;
  p "  \"full_theorem_holds\": %b\n" b.prove_holds;
  p "}\n";
  close_out oc;
  Format.printf "wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Part 7: topology campaigns (N-domain/M-core pairwise oracles)        *)

type topo_shape = {
  shape_label : string;
  shape_trials : int;
  shape_domains : int;  (** total domains drawn across the trials *)
  shape_pairs : int;  (** total ordered (varied, observer) pairs checked *)
  shape_seconds : float;
  shape_violations : int;
}

type topo_bench = {
  topo_shapes : topo_shape list;
  topo_clean : bool;  (** zero violations across every shape *)
}

(* One shape = one (max_domains, max_cores) bound pair; the pairwise
   oracle's cost is dominated by N+3 executions per topology plus the
   N·(N-1) evidence comparisons, so the interesting fit is seconds
   against the drawn pair count, not the trial count. *)
let bench_topology () =
  let trials = if !smoke then 4 else 12 in
  let shapes =
    List.map
      (fun (max_domains, max_cores) ->
        let label = Printf.sprintf "%dx%d" max_domains max_cores in
        let topos =
          List.init trials
            (Tpro_fuzz.Topology.generate ~seed:42 ~max_domains ~max_cores)
        in
        let violations = ref 0 in
        let _, dt =
          time_wall (fun () ->
              List.iter
                (fun t ->
                  match Tpro_fuzz.Oracle.check_topology t with
                  | Tpro_fuzz.Oracle.Pass -> ()
                  | Tpro_fuzz.Oracle.Fail _ -> incr violations)
                topos)
        in
        {
          shape_label = label;
          shape_trials = trials;
          shape_domains =
            List.fold_left
              (fun acc t -> acc + Tpro_fuzz.Topology.n_domains t)
              0 topos;
          shape_pairs =
            List.fold_left
              (fun acc t ->
                acc + List.length (Tpro_fuzz.Topology.pairs t))
              0 topos;
          shape_seconds = dt;
          shape_violations = !violations;
        })
      [ (2, 1); (4, 2); (8, 4) ]
  in
  {
    topo_shapes = shapes;
    topo_clean = List.for_all (fun s -> s.shape_violations = 0) shapes;
  }

let print_topo_bench b =
  Format.printf
    "=== Topology campaigns: pairwise oracle cost vs. N.M ===@.@.";
  Format.printf "  %-8s %7s %8s %7s %10s %11s %10s@." "bound" "trials"
    "domains" "pairs" "seconds" "topo/sec" "ms/pair";
  List.iter
    (fun s ->
      Format.printf "  %-8s %7d %8d %7d %10.3f %11.1f %10.2f@." s.shape_label
        s.shape_trials s.shape_domains s.shape_pairs s.shape_seconds
        (float_of_int s.shape_trials /. s.shape_seconds)
        (1000.0 *. s.shape_seconds /. float_of_int s.shape_pairs))
    b.topo_shapes;
  Format.printf "  zero pairwise violations:    %b@.@." b.topo_clean

let write_topo_json path b =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"tpro-bench-topology/1\",\n";
  p "  \"shapes\": {\n";
  let n = List.length b.topo_shapes in
  List.iteri
    (fun i s ->
      p
        "    \"%s\": { \"trials\": %d, \"domains\": %d, \"pairs\": %d, \
         \"seconds\": %.6f, \"topologies_per_second\": %.4f, \
         \"ms_per_pair\": %.4f, \"violations\": %d }%s\n"
        (json_escape s.shape_label) s.shape_trials s.shape_domains
        s.shape_pairs s.shape_seconds
        (float_of_int s.shape_trials /. s.shape_seconds)
        (1000.0 *. s.shape_seconds /. float_of_int s.shape_pairs)
        s.shape_violations
        (if i = n - 1 then "" else ","))
    b.topo_shapes;
  p "  },\n";
  p "  \"zero_pairwise_violations\": %b\n" b.topo_clean;
  p "}\n";
  close_out oc;
  Format.printf "wrote %s@." path

let () =
  if not !smoke then regenerate_tables ();
  let par, raw_tables = bench_parallel () in
  print_par_bench par;
  let sup =
    bench_supervisor ~raw_seconds:par.par_seconds ~raw_tables
  in
  print_sup_bench sup;
  let micro =
    if !smoke then [] else run_bechamel (experiment_tests @ micro_tests)
  in
  let flat = bench_flatstate par in
  print_flat_bench flat;
  let prove = bench_prove () in
  print_prove_bench prove;
  let topo = bench_topology () in
  print_topo_bench topo;
  write_json !json_path par micro;
  write_sup_json !sup_json_path sup;
  write_flat_json !flat_json_path flat;
  write_prove_json !prove_json_path prove;
  write_topo_json !topo_json_path topo;
  if not topo.topo_clean then begin
    Format.printf
      "ERROR: clean topology campaign reported pairwise violations@.";
    exit 1
  end;
  if not prove.prove_identical then begin
    Format.printf
      "ERROR: parallel theorem derivation diverged from sequential output@.";
    exit 1
  end;
  if not par.identical then begin
    Format.printf
      "ERROR: parallel suite diverged from sequential suite output@.";
    exit 1
  end;
  if not sup.sup_identical then begin
    Format.printf
      "ERROR: supervised sweep diverged from raw fan-out output@.";
    exit 1
  end;
  let floor = !require_speedup_1core in
  if floor > 0.0 && par.cores = 1 then begin
    if par.speedup < floor then begin
      Format.printf
        "ERROR: calibrated 1-core speedup %.2f < required %.2f \
         (oversubscription regression)@."
        par.speedup floor;
      exit 1
    end
    else
      Format.printf "1-core speedup guard ok: %.2f >= %.2f@." par.speedup
        floor
  end;
  let budget = !budget_cache_digest_ns in
  if budget > 0.0 then begin
    let got = incr_cache_digest_ns flat in
    if Float.is_nan got || got > budget then begin
      Format.printf
        "ERROR: perf budget exceeded: incremental cache digest %.2f ns/run > \
         budget %.2f ns/run@."
        got budget;
      exit 1
    end
    else
      Format.printf
        "perf budget ok: incremental cache digest %.2f ns/run <= %.2f \
         ns/run@."
        got budget
  end
