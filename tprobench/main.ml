(* tprobench: one layered benchmark for tpro.

   main.exe --workload repro|fuzz|topo --seed N --seconds S
            --trace 0|1 [--smoke]
   main.exe --names

   Run from the repository root, after building bin/tpro.exe (the traced
   run starts it as a serve daemon).  Scratch files go to .tprobench/.

   Prints a host block, then as its last line one JSON object with keys
   correct, attempted, failed and metrics: every end-to-end metric with
   --trace 0, every per-layer metric with --trace 1. *)

module Calibrate = Tpro_engine.Calibrate

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric value"

let print_result ~correct ~attempted ~failed metrics =
  let units = Names.end_to_end @ Names.per_layer in
  let metric (k, v) =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k (json_num v) (List.assoc k units)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let print_host (ctx : Workloads.ctx) =
  let h = Calibrate.host () in
  let g = Gc.get () in
  Printf.printf
    "{\"host\": {\"workload\": \"%s\", \"seed\": %d, \"cores_detected\": %d, \"domains\": %d, \
     \"probe_efficiency\": %s, \"probe_note\": \"%s\", \"worker_minor_heap_words\": %d, \
     \"main_minor_heap_words\": %d, \"space_overhead\": %d, \"ocaml\": \"%s\", \"word_size\": %d, \
     \"os\": \"%s\"}}\n%!"
    ctx.workload ctx.seed h.Calibrate.cores_detected h.Calibrate.recommended
    (json_num h.Calibrate.parallel_efficiency)
    (Span.json_escape h.Calibrate.probe_note)
    h.Calibrate.minor_heap_words g.Gc.minor_heap_size g.Gc.space_overhead Sys.ocaml_version
    Sys.word_size Sys.os_type

let end_to_end (e : Workloads.e2e) =
  let open Workloads in
  let walls = List.map (fun u -> u.wall) e.units in
  let ops = List.fold_left (fun a u -> a + u.ops) 0 e.units in
  let failed = e.extra_failed + List.fold_left (fun a u -> a + u.failed) 0 e.units in
  Printf.eprintf "units: %d, walls (s): %s\n%!" (List.length walls)
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
  ( failed = 0,
    ops,
    failed,
    [
      ("setup_s", e.setup_s);
      ("wall_s", Util.median walls);
      ("ops_per_s", Util.median (List.map (fun u -> float_of_int u.ops /. u.wall) e.units));
      ("peak_rss_mb", e.peak_rss_mb);
    ] )

let print_names () =
  let pairs l = String.concat ", " (List.map (fun (n, u) -> Printf.sprintf "[\"%s\", \"%s\"]" n u) l) in
  Printf.printf "{\"workloads\": [%s], \"end_to_end\": [%s], \"per_layer\": [%s]}\n"
    (String.concat ", " (List.map (Printf.sprintf "\"%s\"") Names.workloads))
    (pairs Names.end_to_end) (pairs Names.per_layer)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let smoke = ref false and names = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W repro|fuzz|topo");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced layer run");
      ("--smoke", Arg.Set smoke, " tiny sizes, every check");
      ("--names", Arg.Set names, " print workload and metric names, then exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !names then print_names ()
  else begin
    if not (List.mem !workload Names.workloads) then begin
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
    end;
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "--trace takes 0 or 1";
      exit 2
    end;
    let ctx =
      {
        Workloads.workload = !workload;
        seed = !seed;
        seconds = !seconds;
        smoke = !smoke;
        tpro = "_build/default/bin/tpro.exe";
        dir = Filename.concat ".tprobench" !workload;
      }
    in
    Util.mkdir_p ctx.dir;
    at_exit Daemon.kill_all;
    if !trace = 0 then begin
      let e = Workloads.run ctx in
      print_host ctx;
      let correct, attempted, failed, metrics = end_to_end e in
      print_result ~correct ~attempted ~failed metrics
    end
    else begin
      let r = Traced.run ctx in
      print_host ctx;
      print_result ~correct:r.Traced.correct ~attempted:r.Traced.attempted ~failed:r.Traced.failed
        r.Traced.rows
    end
  end
