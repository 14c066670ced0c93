(* The benchmark's vocabulary: workload names and every metric it prints,
   with units.  BENCHMARK.json must list exactly these (the self-test in
   run.py checks it). *)

let workloads = [ "repro"; "fuzz"; "topo" ]

(* Untraced runs ([--trace 0]) print exactly these. *)
let end_to_end = [ ("setup_s", "s"); ("wall_s", "s"); ("ops_per_s", "1/s"); ("peak_rss_mb", "MiB") ]

let layers =
  [ "hw"; "kernel"; "secmodel"; "channel"; "fuzz"; "core"; "engine"; "serve" ]

let tables = List.init 20 (fun i -> Printf.sprintf "e%d" (i + 1))

(* Traced runs ([--trace 1]) print exactly these. *)
let per_layer =
  [
    ("hw.cache_access_ns", "ns");
    ("hw.tlb_lookup_ns", "ns");
    ("hw.tlb_insert_ns", "ns");
    ("hw.prefetch_observe_ns", "ns");
    ("hw.tlb_digest_ns", "ns");
    ("hw.cache_digest_set_ns", "ns");
    ("hw.machine_load_ns", "ns");
    ("hw.flush_dirty_ns", "ns");
    ("hw.digest_core_ns", "ns");
    ("hw.digest_core_fold_ns", "ns");
    ("kernel.build_us", "us");
    ("kernel.execute_ms", "ms");
    ("kernel.step_ns", "ns");
    ("kernel.steps", "count");
    ("kernel.sim_cycles", "count");
    ("secmodel.sweep_ms", "ms");
    ("secmodel.lo_view_us", "us");
    ("secmodel.compare_us", "us");
    ("secmodel.collect_ms", "ms");
    ("secmodel.exhaustive_ms", "ms");
    ("secmodel.boundaries", "count");
    ("secmodel.executions", "count");
    ("channel.capacity_us", "us");
    ("channel.attack_trial_ms", "ms");
    ("fuzz.generate_us", "us");
    ("fuzz.check_nonint_ms", "ms");
    ("fuzz.check_nonint_trials", "count");
    ("fuzz.check_capacity_ms", "ms");
    ("fuzz.check_capacity_trials", "count");
    ("fuzz.check_legacy_ms", "ms");
    ("fuzz.check_legacy_trials", "count");
    ("fuzz.check_topology_p50_ms", "ms");
    ("fuzz.check_topology_p99_ms", "ms");
    ("fuzz.check_topology_trials", "count");
    ("fuzz.mutant_kill_trials", "count");
    ("topo.mutant_kill_trials", "count");
  ]
  @ List.map (fun id -> ("core.table_s." ^ id, "s")) tables
  @ [
      ("core.prove_s.full", "s");
      ("core.prove_s.none", "s");
      ("engine.dispatch_us", "us");
      ("engine.parallel_efficiency", "ratio");
      ("engine.speedup", "ratio");
      ("engine.steals", "count");
      ("engine.tasks_executed", "count");
      ("engine.tasks_injected", "count");
      ("engine.gc_minor", "count");
      ("engine.gc_major", "count");
      ("engine.gc_promoted_mb", "MiB");
      ("engine.checkpoint_save_ms", "ms");
      ("engine.frame_decode_ns", "ns");
      ("serve.wire_roundtrip_ns", "ns");
      ("serve.journal_append_us", "us");
      ("serve.journal_sync_ms", "ms");
      ("serve.job_execute_us.spin", "us");
      ("serve.job_execute_us.fuzz", "us");
      ("serve.recovery_s", "s");
      ("serve.duplicate_deliveries", "count");
      ("serve.reconnects", "count");
      ("serve.busy_retries", "count");
      ("unattributed_frac", "ratio");
      ("trace_overhead_frac", "ratio");
    ]
  @ List.map (fun l -> ("layer." ^ l ^ ".self_s", "s")) layers

(* Counts of simulated work: a pure simulator speed-up must leave them
   unchanged, so every traced run compares them with the previous run on
   the same inputs. *)
let exact_counts =
  [
    "kernel.steps";
    "kernel.sim_cycles";
    "secmodel.boundaries";
    "secmodel.executions";
    "fuzz.mutant_kill_trials";
    "topo.mutant_kill_trials";
  ]
