(* Command-line driver: run experiments, verify configurations, inspect
   the model.

   Long-running entry points (fuzz campaigns, the experiment sweep) go
   through the engine's supervision layer: deterministic output — the
   report a resumed run prints is bit-identical to an uninterrupted one
   — stays on stdout; operational chatter (run summaries, resume notes,
   per-task failures) goes to stderr. *)

module Supervisor = Tpro_engine.Supervisor

(* Exit codes: 0 clean, 1 operational failure (oracle violation, bad
   replay), 2 campaign incomplete (supervised tasks failed), 124
   usage/parse errors (cmdliner's convention, shared by the replay
   parser). *)
let exit_incomplete = 2

(* Every supervised front-end ends the same way: resume notes, the run
   summary and one line per task the supervisor could not settle go to
   stderr; then [report] prints the deterministic verdict on stdout (and
   may exit with its own code); then the run exits 2 if anything was
   lost. *)
let finish_campaign sup ~notes ~lost report =
  List.iter (fun n -> Format.eprintf "note: %s@." n) notes;
  Format.eprintf "%a@." Supervisor.pp_summary (Supervisor.summary sup);
  List.iter (fun (task, msg) -> Format.eprintf "%s lost: %s@." task msg) lost;
  report ();
  if lost <> [] then exit exit_incomplete

let lost_trials =
  List.map (fun { Tpro_fuzz.Driver.trial; error } ->
      (Printf.sprintf "trial %d" trial, Supervisor.task_error_to_string error))

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let list_experiments () =
  print_endline "experiments (see DESIGN.md for the paper mapping):";
  List.iter (fun id -> Printf.printf "  %s\n" id) Time_protection.Experiments.ids

let print_table csv table =
  if csv then print_string (Time_protection.Table.to_csv table)
  else Format.printf "%a@." Time_protection.Table.render table

(* Resolve the --checkpoint / --resume pair: --resume FILE implies
   checkpointing to the same FILE unless --checkpoint overrides it. *)
let checkpoint_path checkpoint resume =
  match (checkpoint, resume) with
  | Some c, _ -> Some c
  | None, r -> r

(* -j's default, the calibrated domain count, is resolved only by a
   command about to fan out: calibrating runs a 2-domain probe that
   `--version`, `list` or an explicit -j must not pay for. *)
let resolve_jobs = function
  | Some jobs -> jobs
  | None -> Tpro_engine.Pool.recommended ()

(* Supervised sweep shared by `tpro all` and `tpro exp` when a
   checkpoint is in play: print the tables that settled, report the ones
   that did not, exit 2 if the sweep is incomplete. *)
let run_sweep_supervised ?seeds ?only ~csv ~jobs ~path ~resume () =
  let open Time_protection.Experiments in
  Supervisor.with_supervisor ~domains:jobs (fun sup ->
      let sw = run_supervised ?seeds ~sup ~checkpoint:path ~resume ?only () in
      finish_campaign sup ~notes:sw.sweep_notes
        ~lost:
          (List.filter_map
             (function
               | id, Error e -> Some ("experiment " ^ id, Supervisor.task_error_to_string e)
               | _, Ok _ -> None)
             sw.tables)
        (fun () ->
          List.iter (function _, Ok t -> print_table csv t | _, Error _ -> ()) sw.tables))

let run_experiment id seeds csv jobs checkpoint resume =
  match Time_protection.Experiments.by_id id with
  | None ->
    Printf.eprintf "unknown experiment %s; try `tpro list`\n" id;
    exit 1
  | Some f -> (
    let seeds = match seeds with [] -> None | l -> Some l in
    let jobs = resolve_jobs jobs in
    match checkpoint_path checkpoint resume with
    | Some path ->
      run_sweep_supervised ?seeds ~only:[ String.lowercase_ascii id ] ~csv
        ~jobs ~path ~resume:(resume <> None) ()
    | None ->
      if jobs <= 1 then print_table csv (f ?seeds ())
      else
        Tpro_engine.Pool.with_pool ~domains:jobs (fun pool ->
            print_table csv (f ?seeds ~pool ())))

let run_all seeds csv jobs checkpoint resume =
  let seeds = match seeds with [] -> None | l -> Some l in
  let jobs = resolve_jobs jobs in
  match checkpoint_path checkpoint resume with
  | Some path ->
    run_sweep_supervised ?seeds ~csv ~jobs ~path ~resume:(resume <> None) ()
  | None ->
    let tables =
      if jobs <= 1 then Time_protection.Experiments.all ?seeds ()
      else Time_protection.Experiments.all_par ?seeds ~domains:jobs ()
    in
    List.iter (print_table csv) tables

let configs = Time_protection.Presets.known

let verify cfg_name =
  match List.assoc_opt cfg_name configs with
  | None ->
    Printf.eprintf "unknown configuration %s; known: %s\n" cfg_name
      (String.concat ", " (List.map fst configs));
    exit 1
  | Some cfg ->
    let report = Time_protection.Verify.run ~cfg () in
    Format.printf "%a@." Time_protection.Verify.pp_report report;
    if not report.Time_protection.Verify.all_hold then exit 2

let show_trace cfg_name =
  match List.assoc_opt cfg_name configs with
  | None ->
    Printf.eprintf "unknown configuration %s\n" cfg_name;
    exit 1
  | Some cfg ->
    let run =
      Tpro_secmodel.Nonint.execute
        (fun ~secret -> Time_protection.Ni_scenario.build ~cfg ~seed:0 ~secret)
        0
    in
    let k = run.Tpro_secmodel.Nonint.kernel in
    Format.printf "timeline of the verification scenario under %s:@.%a@."
      cfg_name
      (Time_protection.Trace.pp ~limit:30)
      k;
    Format.printf "recommended padding for this machine (WCET analysis): %d cycles@."
      (Time_protection.Wcet.recommended_pad
         (Tpro_hw.Machine.config (Tpro_kernel.Kernel.machine k)))

let scenario_of_id id =
  match String.lowercase_ascii id with
  | "e2" | "l1" -> Tpro_channel.Cache_channel.l1_scenario ()
  | "e3" | "llc" -> Tpro_channel.Cache_channel.llc_scenario ()
  | "e5" | "text" -> Tpro_channel.Kernel_text.scenario ()
  | "e1" | "downgrader" -> Tpro_channel.Downgrader.scenario ()
  | "e8" | "tlb" -> Tpro_channel.Tlb_channel.scenario ()
  | "e6" | "irq" -> Tpro_channel.Irq_channel.scenario ()
  | "e17" | "bp" -> Tpro_channel.Bp_channel.scenario ()
  | "e20" | "btb" -> Tpro_channel.Btb_channel.scenario ()
  | other ->
    Printf.eprintf
      "no channel scenario for %s (try e1/e2/e3/e5/e6/e8/e17/e20)\n" other;
    exit 1

let show_matrix id cfg_name =
  match List.assoc_opt cfg_name configs with
  | None ->
    Printf.eprintf "unknown configuration %s\n" cfg_name;
    exit 1
  | Some cfg ->
    let scenario = scenario_of_id id in
    let o =
      Tpro_channel.Attack.measure ~seeds:(List.init 8 (fun i -> i)) scenario
        ~cfg ()
    in
    Format.printf "%a@.@.channel matrix P(output | input):@.%a@."
      Tpro_channel.Attack.pp_outcome o Tpro_channel.Matrix.pp
      (Tpro_channel.Attack.matrix o)

let run_protocol id message_len =
  let scenario = scenario_of_id id in
  List.iter
    (fun (name, cfg) ->
      let t =
        Tpro_channel.Protocol.transmit scenario ~cfg
          ~message:(Tpro_channel.Protocol.random_message scenario ~len:message_len)
      in
      Format.printf "%-6s %a@." name Tpro_channel.Protocol.pp_transmission t)
    [ ("none", Time_protection.Presets.none); ("full", Time_protection.Presets.full) ]

(* Composed-theorem proving: fan evidence collection (one task per
   preset x latency seed) over the supervisor, compose the per-lemma
   verdict table, and render one theorem per preset.  Exit codes follow
   the lemma semantics: 1 if any lemma is refuted, 2 if an out-of-scope
   registration is unacknowledged (or evidence was lost), 0 otherwise.
   With a checkpoint, a batch is one task per pool domain, so the first
   snapshot lands as soon as the first tasks settle; without one, every
   task goes to the pool in a single batch. *)
let run_prove preset all seeds secrets smoke jobs acknowledge json checkpoint
    checkpoint_every resume =
  let presets =
    if all then configs
    else
      match List.assoc_opt preset configs with
      | None ->
        Printf.eprintf "unknown configuration %s; known: %s\n" preset
          (String.concat ", " (List.map fst configs));
        exit 1
      | Some cfg -> [ (preset, cfg) ]
  in
  let seeds =
    match seeds with
    | [] -> if smoke then [ 0 ] else Time_protection.Ni_scenario.default_seeds
    | l -> l
  in
  let secrets =
    match secrets with
    | [] ->
      if smoke then [ 0; 1 ] else Time_protection.Ni_scenario.default_secrets
    | l -> l
  in
  Option.iter
    (fun m ->
      Printf.eprintf "tpro prove: --secrets: %s\n" m;
      exit 124)
    (Tpro_secmodel.Theorem.secrets_error secrets);
  let checkpoint = checkpoint_path checkpoint resume in
  Supervisor.with_supervisor ~domains:(resolve_jobs jobs) (fun sup ->
      let open Time_protection.Prove in
      let checkpoint_every =
        match (checkpoint_every, checkpoint) with
        | Some n, _ -> n
        | None, Some _ ->
          Option.fold ~none:1 ~some:Tpro_engine.Pool.size (Supervisor.pool sup)
        | None, None -> List.length presets * List.length seeds
      in
      let o =
        run ~sup ?checkpoint ~checkpoint_every ~resume:(resume <> None)
          ~acknowledge ~seeds ~secrets ~presets ()
      in
      let unproved_notes =
        List.map
          (fun (name, _) ->
            Printf.sprintf "preset %s: every evidence task was lost; no theorem composed"
              name)
          o.unproved
      in
      finish_campaign sup ~notes:(o.notes @ unproved_notes)
        ~lost:
          (List.concat_map (fun r -> r.lost) o.reports
          @ List.concat_map snd o.unproved
          |> List.sort compare
          |> List.map (fun (i, m) -> (Printf.sprintf "task %d" i, m)))
        (fun () ->
          List.iter (fun r -> Format.printf "%a@." pp_report r) o.reports;
          Option.iter (fun path -> write_file path (to_json o.reports)) json;
          let any f = List.exists f o.reports in
          if any (fun r -> r.theorem.Tpro_secmodel.Theorem.refuted <> []) then
            exit 1
          else if
            any (fun r -> r.theorem.Tpro_secmodel.Theorem.unacknowledged <> [])
          then exit 2))

(* One replay path for both fuzz and topo: the loader dispatches on the
   file's format line, so either subcommand replays anything the tool
   ever wrote (format-1 scenarios, format-2 topologies, and
   pre-versioning scenario files with no format line). *)
let run_replay path =
  let open Tpro_fuzz in
  let verdict = function
    | Oracle.Pass -> print_endline "replay: PASS"
    | Oracle.Fail m ->
      Printf.printf "replay: FAIL: %s\n" m;
      exit 1
  in
  match Replay.load path with
  | Error (Scenario.Io msg) ->
    Printf.eprintf "cannot replay %s: %s\n" path msg;
    exit 1
  | Error (Scenario.Parse pe) ->
    Format.eprintf "cannot replay %s: %a@." path Scenario.pp_parse_error pe;
    exit 124
  | Ok (Replay.Scenario s) ->
    Format.printf "replaying %a@." Scenario.pp s;
    verdict (Oracle.check s)
  | Ok (Replay.Topology t) ->
    Format.printf "replaying %a@." Topology.pp t;
    verdict (Oracle.check_topology t)

(* Scenario fuzzing: generated workloads checked by the differential
   security oracles, with shrunk counterexamples persisted for replay.
   The campaign runs under supervision: one bad task costs one result,
   the run completes, and the missing trials are reported (exit 2). *)
let run_fuzz seed trials jobs mutant replay out checkpoint checkpoint_every
    resume =
  let open Tpro_fuzz.Driver in
  match replay with
  | Some path -> run_replay path
  | None ->
    Supervisor.with_supervisor ~domains:(resolve_jobs jobs) (fun sup ->
        let c =
          campaign ~sup ~mutant
            ?checkpoint:(checkpoint_path checkpoint resume)
            ~checkpoint_every ~resume:(resume <> None) ~seed ~trials ()
        in
        finish_campaign sup ~notes:c.notes ~lost:(lost_trials c.task_failures)
          (fun () ->
            match c.failures with
            | [] ->
              Format.printf "fuzz: %d trials (seed %d): zero oracle violations@."
                trials seed
            | f :: _ ->
              Format.printf "fuzz: %d violation(s) in %d trials (seed %d)@.%a@."
                (List.length c.failures) trials seed pp_failure f;
              Tpro_fuzz.Scenario.save out (fst (Lazy.force f.shrunk));
              Format.printf
                "shrunk counterexample written to %s (replay with: tpro fuzz \
                 --replay %s)@."
                out out;
              exit 1))

(* Topology campaigns: N-domain/M-core systems with the noninterference
   and capacity oracles demanded pairwise across every (varied,
   observer) domain pair.  Same supervision/checkpoint/exit-code
   contract as `tpro fuzz`. *)
let run_topo seed trials jobs mutant max_domains max_cores replay out
    checkpoint checkpoint_every resume =
  let open Tpro_fuzz.Driver in
  match replay with
  | Some path -> run_replay path
  | None ->
    Supervisor.with_supervisor ~domains:(resolve_jobs jobs) (fun sup ->
        let c =
          topo_campaign ~sup ~mutant
            ?checkpoint:(checkpoint_path checkpoint resume)
            ~checkpoint_every ~resume:(resume <> None) ~max_domains ~max_cores
            ~seed ~trials ()
        in
        finish_campaign sup ~notes:c.topo_notes
          ~lost:(lost_trials c.topo_task_failures) (fun () ->
            match c.topo_failures with
            | [] ->
              Format.printf
                "topo: %d topologies (seed %d, <=%d domains, <=%d cores): zero \
                 pairwise violations@."
                trials seed max_domains max_cores
            | f :: _ ->
              Format.printf
                "topo: %d violation(s) in %d topologies (seed %d)@.%a@."
                (List.length c.topo_failures) trials seed pp_topo_failure f;
              Tpro_fuzz.Topology.save out f.topology;
              Format.printf
                "counterexample written to %s (replay with: tpro topo --replay \
                 %s)@."
                out out;
              exit 1))

(* The campaign daemon and its client.  `tpro serve` owns a Unix-domain
   socket, journals every accepted job before acknowledging it, and
   multiplexes all tenants over one supervised pool; `tpro client`
   submits jobs and survives the server being killed and restarted
   (reconnect + idempotent resubmission).  Exit codes: serve exits 0 on
   a clean shutdown and 1 when an injected fault crashed it; client
   exits 0 when every job settled, 1 when a submitted job failed, 2
   when the campaign could not be completed. *)
let run_serve socket journal resume jobs queue_max deadline retries batch
    outq_limit fault =
  let open Tpro_serve.Server in
  let cfg =
    {
      (default_config ~socket) with
      journal;
      resume;
      domains = jobs;
      queue_max;
      default_deadline = deadline;
      retries;
      batch;
      outq_limit;
      fault;
    }
  in
  Format.eprintf "serve: listening on %s%s@." socket
    (match journal with
    | Some j -> Printf.sprintf " (journal %s%s)" j (if resume then ", resumed" else "")
    | None -> " (no journal: accepted jobs are not crash-safe)");
  let stats = run cfg in
  List.iter (fun n -> Format.eprintf "note: %s@." n) stats.notes;
  Format.eprintf
    "serve: accepted %d, completed %d (%d failed), busy %d, idempotent %d, \
     executed %d, tenants %d, recovered %d jobs + %d results%s@."
    stats.accepted stats.completed stats.failed stats.busy_rejections
    stats.idempotent_hits stats.executed stats.tenants stats.recovered_jobs
    stats.recovered_results
    (if stats.degraded then " [degraded]" else "");
  if fault = Torn_journal_crash then exit 1

let run_client socket tenant stats shutdown bench count kind deadline window
    json dump id_prefix specs =
  let module Client = Tpro_serve.Client in
  let module Job = Tpro_serve.Job in
  if stats then (
    match Client.server_stats ~socket with
    | Ok kvs -> List.iter (fun (k, v) -> Printf.printf "%s %s\n" k v) kvs
    | Error e ->
      Printf.eprintf "client: %s\n" e;
      exit 1)
  else if shutdown then (
    match Client.shutdown_server ~socket with
    | Ok () -> ()
    | Error e ->
      Printf.eprintf "client: %s\n" e;
      exit 1)
  else begin
    let mk spec =
      match Job.bench_kind spec with
      | Ok f -> f
      | Error e ->
        Printf.eprintf "client: %s\n" e;
        exit 124
    in
    let jobs =
      if bench then
        let f = mk kind in
        List.init count (fun i ->
            { Job.id = Printf.sprintf "%s-%06d" id_prefix i; deadline; kind = f i })
      else if specs = [] then begin
        Printf.eprintf
          "client: nothing to do (give job specs, or --bench/--stats/--shutdown)\n";
        exit 124
      end
      else
        List.mapi
          (fun i spec ->
            {
              Job.id = Printf.sprintf "%s-%06d" id_prefix i;
              deadline;
              kind = (mk spec) i;
            })
          specs
    in
    let progress =
      if bench then
        Some
          (fun ~done_ ~total ->
            if done_ mod 1000 = 0 || done_ = total then
              Printf.eprintf "client: %d/%d\n%!" done_ total)
      else None
    in
    match Client.run_jobs ~socket ~tenant ~window ?progress jobs with
    | Error e ->
      Printf.eprintf "client: %s\n" e;
      exit exit_incomplete
    | Ok report ->
      (match dump with
      | Some path -> write_file path (Client.dump_results report)
      | None -> ());
      (match json with
      | Some path ->
        write_file path
          (Client.bench_json ~kind ~jobs:(List.length jobs) report)
      | None -> ());
      let failed =
        List.length (List.filter (fun (_, o) -> Result.is_error o) report.results)
      in
      if bench then begin
        let lat = Array.copy report.Client.latencies in
        Array.sort compare lat;
        Printf.printf
          "client: %d jobs in %.2fs (%.0f jobs/s), p50 %.2fms p99 %.2fms, \
           failed %d, busy retries %d, reconnects %d, duplicates dropped %d\n"
          report.Client.total report.Client.duration
          (if report.Client.duration > 0. then
             float_of_int report.Client.total /. report.Client.duration
           else 0.)
          (Client.percentile lat 50. *. 1000.)
          (Client.percentile lat 99. *. 1000.)
          failed report.Client.busy_retries report.Client.reconnects
          report.Client.duplicate_deliveries
      end
      else begin
        List.iter
          (fun (id, outcome) ->
            match outcome with
            | Ok payload -> Printf.printf "%s: ok: %s\n" id payload
            | Error (code, detail) ->
              Printf.printf "%s: failed (%s): %s\n" id
                (Tpro_serve.Wire.failure_code_to_string code)
                detail)
          report.Client.results;
        if failed > 0 then exit 1
      end
  end

open Cmdliner

let seeds_arg =
  Arg.(value & opt (list int) [] & info [ "seeds" ] ~doc:"Latency-function seeds.")

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit tables as CSV.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ]
        ~doc:
          "Number of domains for the parallel trial engine (default: the \
           calibrated domain count for this host — 1 on a single-core or \
           CPU-quota'd container, where fan-out would only add overhead).  \
           Results are bit-identical for any value.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Snapshot progress into $(docv) (crash-safe: written to a \
           temporary file, fsynced and atomically renamed) so an \
           interrupted run can be resumed with $(b,--resume).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume from the checkpoint in $(docv) — and keep checkpointing \
           there — producing output bit-identical to an uninterrupted run.  \
           A missing, corrupt or mismatched checkpoint restarts from \
           scratch with a note on stderr.")

let mutant_arg ~caught_by =
  let open Tpro_fuzz.Scenario in
  Arg.(
    value
    & opt
        (enum
           (List.map
              (fun m -> (mutant_to_string m, m))
              [ No_mutant; Skip_flush; Drop_padding; Miscolour ]))
        No_mutant
    & info [ "mutant" ]
        ~doc:
          ("Inject a defence bypass (skip-flush, drop-padding, miscolour) to \
            validate that " ^ caught_by ^ "."))

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List experiment ids")
    Term.(const list_experiments $ const ())

(* What would the engine do on this host, and why?  `--fresh` re-probes
   instead of using the cached answer, for checking a quota change
   without restarting anything. *)
let run_calibrate fresh =
  let h =
    if fresh then Tpro_engine.Calibrate.probe ()
    else Tpro_engine.Calibrate.host ()
  in
  Format.printf "%a@." Tpro_engine.Calibrate.pp_host h

let calibrate_cmd =
  let fresh =
    Arg.(
      value & flag
      & info [ "fresh" ] ~doc:"Re-run the probe instead of using the cache.")
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Probe the host and report the calibrated domain count the engine \
          will use")
    Term.(const run_calibrate $ fresh)

let exp_cmd =
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  Cmd.v (Cmd.info "exp" ~doc:"Run one experiment (e.g. e2)")
    Term.(
      const run_experiment $ id $ seeds_arg $ csv_arg $ jobs_arg
      $ checkpoint_arg $ resume_arg)

let all_cmd =
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment")
    Term.(
      const run_all $ seeds_arg $ csv_arg $ jobs_arg $ checkpoint_arg
      $ resume_arg)

let trace_cmd =
  let cfg = Arg.(value & pos 0 string "full" & info [] ~docv:"CONFIG") in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Show the execution timeline of the verification scenario")
    Term.(const show_trace $ cfg)

let matrix_cmd =
  let id = Arg.(value & pos 0 string "e2" & info [] ~docv:"CHANNEL") in
  let cfg = Arg.(value & pos 1 string "none" & info [] ~docv:"CONFIG") in
  Cmd.v
    (Cmd.info "matrix" ~doc:"Show a channel's empirical matrix and capacity")
    Term.(const show_matrix $ id $ cfg)

let protocol_cmd =
  let id = Arg.(value & pos 0 string "e2" & info [] ~docv:"CHANNEL") in
  let len =
    Arg.(value & opt int 24 & info [ "length" ] ~doc:"Message length in symbols.")
  in
  Cmd.v
    (Cmd.info "protocol"
       ~doc:"Transmit a message over a covert channel and report error rate")
    Term.(const run_protocol $ id $ len)

let verify_cmd =
  let cfg =
    Arg.(value & pos 0 string "full"
         & info [] ~docv:"CONFIG"
             ~doc:"One of: none, flush+pad, colour-only, full, full\\\\flush, ...")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Run the Sect. 5.2 proof stack against a configuration")
    Term.(const verify $ cfg)

let prove_cmd =
  let preset =
    Arg.(
      value & opt string "full"
      & info [ "preset" ] ~docv:"CONFIG"
          ~doc:"Preset to prove (default full); see `tpro verify`.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Prove every preset (standard four plus ablations).")
  in
  let secrets =
    Arg.(
      value & opt (list int) []
      & info [ "secrets" ] ~doc:"Hi secrets to sample (default 0,1,2,3).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Thin the evidence to one latency seed and two secrets — the CI \
             smoke configuration.  Explicit $(b,--seeds)/$(b,--secrets) \
             override it.")
  in
  let acknowledge =
    Arg.(
      value & opt (list string) []
      & info [ "acknowledge" ] ~docv:"RESOURCES"
          ~doc:
            "Accept the named out-of-scope resources' $(b,scope:) \
             obligations.  An out-of-scope registration that is not \
             acknowledged refutes the composed theorem (exit 2).")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the per-lemma verdict table as JSON to $(docv).")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Evidence tasks (one per preset and latency seed) between \
             checkpoint snapshots.  Default: one per pool \
             domain with $(b,--checkpoint)/$(b,--resume), so a snapshot \
             lands as soon as the first tasks settle; all tasks in one \
             batch without.")
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:
         "Derive the composed time-protection theorem (one unwinding lemma \
          per registered resource, kernel cases, exhaustive small models) \
          under supervision")
    Term.(
      const run_prove $ preset $ all $ seeds_arg $ secrets $ smoke $ jobs_arg
      $ acknowledge $ json $ checkpoint_arg $ checkpoint_every $ resume_arg)

let fuzz_cmd =
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~doc:"Root seed; every trial is derived from it.")
  in
  let trials =
    Arg.(value & opt int 1000 & info [ "trials" ] ~doc:"Number of trials.")
  in
  let mutant = mutant_arg ~caught_by:"the oracles catch it" in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-run one saved scenario instead of fuzzing.")
  in
  let out =
    Arg.(
      value
      & opt string "fuzz-counterexample.txt"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the shrunk counterexample on failure.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 200
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Trials between checkpoint snapshots (default 200).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz generated scenarios against the differential security \
          oracles (noninterference, capacity, legacy equivalence)")
    Term.(
      const run_fuzz $ seed $ trials $ jobs_arg $ mutant $ replay $ out
      $ checkpoint_arg $ checkpoint_every $ resume_arg)

let topo_cmd =
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~doc:"Root seed; every topology is derived from it.")
  in
  let trials =
    Arg.(
      value & opt int 200
      & info [ "trials" ] ~doc:"Number of generated topologies.")
  in
  let mutant = mutant_arg ~caught_by:"some domain pair's oracle catches it" in
  let max_domains =
    Arg.(
      value & opt int 8
      & info [ "domains" ] ~docv:"N"
          ~doc:"Upper bound on drawn domain counts (clamped to 2-8).")
  in
  let max_cores =
    Arg.(
      value & opt int 4
      & info [ "cores" ] ~docv:"M"
          ~doc:"Upper bound on drawn core counts (clamped to 1-4).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Re-run one saved replay file instead of fuzzing; the format \
             line dispatches, so both topology (format 2) and scenario \
             (format 1) files are accepted.")
  in
  let out =
    Arg.(
      value
      & opt string "topo-counterexample.txt"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the failing topology on violation.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 50
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Topologies between checkpoint snapshots (default 50; a \
             topology trial is roughly an order of magnitude heavier than \
             a scenario trial).")
  in
  Cmd.v
    (Cmd.info "topo"
       ~doc:
         "Fuzz procedurally generated N-domain/M-core topologies, demanding \
          noninterference pairwise from every domain's viewpoint")
    Term.(
      const run_topo $ seed $ trials $ jobs_arg $ mutant $ max_domains
      $ max_cores $ replay $ out $ checkpoint_arg $ checkpoint_every
      $ resume_arg)

let socket_arg =
  Arg.(
    value
    & opt string "tpro.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path the daemon listens on.")

let serve_cmd =
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append-only job journal.  Every accepted job is fsynced here \
             before it is acknowledged, so a killed daemon restarted with \
             $(b,--resume) loses zero accepted jobs and re-runs none whose \
             completion was recorded.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay the journal on startup: re-queue unfinished jobs, \
             re-cache finished results.  A torn journal tail (the crash \
             case) is dropped with a note.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the shared pool (default: the calibrated \
             count for this host).")
  in
  let queue_max =
    Arg.(
      value & opt int 65536
      & info [ "queue-max" ] ~docv:"N"
          ~doc:
            "Bound on queued jobs; past it submissions get a typed busy \
             rejection with a retry-after hint instead of an unbounded \
             queue.")
  in
  let deadline =
    Arg.(
      value
      & opt int 50_000_000
      & info [ "deadline" ] ~docv:"FUEL"
          ~doc:
            "Default per-job fuel budget for jobs submitted with deadline 0; \
             a job that burns past its budget settles as a typed deadline \
             failure.")
  in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Additional attempts for a job that raises (deterministic \
             exponential backoff between attempts).")
  in
  let batch =
    Arg.(
      value & opt int 32
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Jobs per scheduling pass; tenants are drained round-robin, one \
             job per tenant per pass.")
  in
  let outq_limit =
    Arg.(
      value
      & opt int (1024 * 1024)
      & info [ "outq-limit" ] ~docv:"BYTES"
          ~doc:
            "Per-connection write-queue cap; a slow reader's further \
             results are parked until it drains (backpressure), never \
             blocking other tenants.")
  in
  let fault =
    let open Tpro_serve.Server in
    Arg.(
      value
      & opt
          (enum
             [
               ("none", No_fault);
               ("torn-result", Torn_result_frame);
               ("drop-after-accept", Drop_after_accept);
               ("torn-journal-crash", Torn_journal_crash);
               ("spawn-failure", Spawn_failure);
             ])
          No_fault
      & info [ "fault" ]
          ~doc:
            "Inject one server-side fault (torn-result, drop-after-accept, \
             torn-journal-crash, spawn-failure) to exercise the recovery \
             paths.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign daemon: multi-tenant job streams over a \
          Unix-domain socket, journaled crash-safe, executed on one shared \
          supervised pool")
    Term.(
      const run_serve $ socket_arg $ journal $ resume $ jobs $ queue_max
      $ deadline $ retries $ batch $ outq_limit $ fault)

let client_cmd =
  let tenant =
    Arg.(
      value & opt string "default"
      & info [ "tenant" ] ~docv:"NAME"
          ~doc:"Tenant name: the server's fairness and re-attach key.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print the server's counters and exit.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the server to drain and exit.")
  in
  let bench =
    Arg.(
      value & flag
      & info [ "bench" ]
          ~doc:
            "Load-generator mode: submit $(b,--count) jobs of $(b,--kind) \
             and report throughput and latency percentiles.")
  in
  let count =
    Arg.(
      value & opt int 10000
      & info [ "count"; "n" ] ~docv:"N" ~doc:"Jobs to submit in bench mode.")
  in
  let kind =
    Arg.(
      value & opt string "spin:50"
      & info [ "kind" ] ~docv:"SPEC"
          ~doc:
            "Bench job kind: $(b,ping), $(b,spin:N), $(b,fuzz:SEED) or \
             $(b,topo:SEED).")
  in
  let deadline =
    Arg.(
      value & opt int 0
      & info [ "deadline" ] ~docv:"FUEL"
          ~doc:"Per-job fuel budget (0 = the server's default).")
  in
  let window =
    Arg.(
      value & opt int 64
      & info [ "window" ] ~docv:"N"
          ~doc:"Unacknowledged submissions in flight at once.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the bench report (BENCH_serve.json shape) to $(docv).")
  in
  let dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"FILE"
          ~doc:
            "Write every result, one wire payload line per job in \
             submission order, for bit-identity diffing between runs.")
  in
  let id_prefix =
    Arg.(
      value & opt string "job"
      & info [ "id-prefix" ] ~docv:"STR"
          ~doc:
            "Job-id prefix; ids are $(docv)-000000..  Ids are idempotency \
             keys — reusing them against a live journal replays cached \
             results instead of re-running.")
  in
  let specs =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SPEC"
          ~doc:"Job specs to submit outside bench mode (same syntax as \
                $(b,--kind)).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Submit campaign jobs to a running daemon; survives server \
          restarts by reconnecting and resubmitting idempotent job ids")
    Term.(
      const run_client $ socket_arg $ tenant $ stats $ shutdown $ bench
      $ count $ kind $ deadline $ window $ json $ dump $ id_prefix $ specs)

let () =
  let info =
    Cmd.info "tpro" ~version:"1.9.0"
      ~doc:"Time protection: executable model, attacks and proofs"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; exp_cmd; all_cmd; verify_cmd; prove_cmd; trace_cmd;
            protocol_cmd; matrix_cmd; fuzz_cmd; topo_cmd; calibrate_cmd;
            serve_cmd; client_cmd;
          ]))
