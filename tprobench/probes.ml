(* Fixed-size measurements of single layers' public calls.  The traced
   run uses them for every row the workload's own decomposition does not
   produce, so every traced run reports every row. *)

open Tpro_hw
open Tpro_secmodel
open Tpro_channel
module Engine = Tpro_engine
module Serve = Tpro_serve
module Presets = Time_protection.Presets
module Ni = Time_protection.Ni_scenario

let span = Span.with_

(* Mean nanoseconds per iteration of [f i]. *)
let ns_per ~iters f =
  let t0 = Util.now () in
  for i = 0 to iters - 1 do
    f i
  done;
  (Util.now () -. t0) /. float_of_int iters *. 1e9

(* Mean nanoseconds of [f i] timed call by call, with [prep i] run
   untimed before each, less one clock read. *)
let per_call_ns ~iters ~prep f =
  let total = ref 0. and clock = ref 0. in
  for i = 0 to iters - 1 do
    prep i;
    let t0 = Util.now () in
    f i;
    let t1 = Util.now () in
    clock := !clock +. (Util.now () -. t1);
    total := !total +. (t1 -. t0)
  done;
  (!total -. !clock) /. float_of_int iters *. 1e9

(* ------------------------------------------------------------------ *)
(* hw: every public call a [Machine.load] makes (TLB lookup, insert on a
   miss and digest; L1 access and set digest; prefetcher), at a given
   machine shape, plus flush and digests. *)

let hw (cfg : Machine.config) =
  span "hw.bench" @@ fun () ->
  let m = Machine.create cfg in
  let pb = Machine.page_bits m in
  let span_bytes = 1 lsl (pb + 6) in
  let addrs = Array.init 4096 (fun i -> Util.mix 17 i mod span_bytes) in
  let a i = addrs.(i land 4095) in
  let l1d = Machine.l1d m ~core:0 in
  let cache =
    ns_per ~iters:200_000 (fun i ->
        ignore (Sys.opaque_identity (Cache.access l1d ~owner:0 ~write:(i land 3 = 0) (a i))))
  in
  let tlb = Machine.tlb m ~core:0 in
  let tlb_insert =
    ns_per ~iters:200_000 (fun i ->
        Tlb.insert tlb ~asid:1 ~vpn:(a i lsr pb) ~pfn:(i land 1023))
  in
  let tlb_lookup =
    ns_per ~iters:200_000 (fun i ->
        ignore (Sys.opaque_identity (Tlb.lookup tlb ~asid:1 ~vpn:(a i lsr pb))))
  in
  let pf = Machine.prefetch m ~core:0 in
  let prefetch =
    ns_per ~iters:200_000 (fun i ->
        ignore (Sys.opaque_identity (Prefetch.observe pf ~pc:((i land 7) * 4) ~addr:(a i))))
  in
  let translate v = Some v in
  let load =
    ns_per ~iters:200_000 (fun i ->
        ignore
          (Sys.opaque_identity
             (Machine.load m ~core:0 ~asid:1 ~domain:0 ~translate ~pc:(0x1000 + ((i land 15) * 4)) (a i))))
  in
  (* the jitter digests a load reads after its TLB lookup and after each
     cache access *)
  let tlb_digest =
    per_call_ns ~iters:20_000
      ~prep:(fun i ->
        let vpn = (a i lsr pb) + (i land 64) in
        if Tlb.lookup tlb ~asid:1 ~vpn = None then Tlb.insert tlb ~asid:1 ~vpn ~pfn:(i land 1023))
      (fun _ -> ignore (Sys.opaque_identity (Tlb.digest tlb)))
  in
  let digest_set =
    per_call_ns ~iters:20_000
      ~prep:(fun i -> ignore (Cache.access l1d ~owner:0 ~write:(i land 3 = 0) (a i)))
      (fun i -> ignore (Sys.opaque_identity (Cache.digest_set l1d (Cache.set_of_paddr l1d (a i)))))
  in
  (* flush: dirty 64 lines, then time the core-local flush alone *)
  let flush =
    per_call_ns ~iters:2_000
      ~prep:(fun r ->
        for j = 0 to 63 do
          ignore (Machine.touch_paddr m ~core:0 ~owner:0 ~write:true (a ((r * 64) + j)))
        done)
      (fun _ -> ignore (Sys.opaque_identity (Machine.flush_core_local m ~core:0)))
  in
  (* incremental digest after one touched line *)
  let digest =
    per_call_ns ~iters:20_000
      ~prep:(fun i -> ignore (Machine.touch_paddr m ~core:0 ~owner:0 ~write:false (a i)))
      (fun _ -> ignore (Sys.opaque_identity (Machine.digest_core m ~core:0)))
  in
  let fold =
    ns_per ~iters:2_000 (fun _ -> ignore (Sys.opaque_identity (Machine.digest_core_fold m ~core:0)))
  in
  [
    ("hw.cache_access_ns", cache);
    ("hw.tlb_lookup_ns", tlb_lookup);
    ("hw.tlb_insert_ns", tlb_insert);
    ("hw.prefetch_observe_ns", prefetch);
    ("hw.tlb_digest_ns", tlb_digest);
    ("hw.cache_digest_set_ns", digest_set);
    ("hw.machine_load_ns", load);
    ("hw.flush_dirty_ns", flush);
    ("hw.digest_core_ns", digest);
    ("hw.digest_core_fold_ns", fold);
  ]

(* ------------------------------------------------------------------ *)
(* kernel: plain executions of the given builders *)

let kernel builds =
  span "probe.kernel" (fun () ->
      List.iter (fun (max_steps, build, secret) -> ignore (Layers.execute ~max_steps build secret)) builds)

(* ------------------------------------------------------------------ *)
(* secmodel: the standard two-domain scenario under [full] *)

let ni_build ~secret = Ni.build ~cfg:Presets.full ~seed:0 ~secret

let secmodel_sweep () =
  span "probe.secmodel" (fun () ->
      let sw =
        Layers.sweep ~max_kernel_steps:1_000_000 ~build:ni_build ~secret1:0 ~secret2:1 ()
      in
      ignore (Layers.compare sw.Unwinding.run_a sw.Unwinding.run_b))

let lo_view_us () =
  let run = Nonint.execute ni_build 0 in
  let iters = 300 in
  ns_per ~iters (fun _ ->
      ignore (Sys.opaque_identity (Unwinding.lo_view run.Nonint.kernel ~lo_dom:1)))
  /. 1e3

(* Evidence for one latency seed, and the per-kind exhaustive lemmas, as
   [Prove.run] derives them for [full]. *)
let collect_ms () =
  span "probe.secmodel" @@ fun () ->
  let build ~secret = Ni.build_with ~with_btb:true ~cfg:Presets.full ~seed:0 ~secret in
  let (_ : Theorem.seed_evidence), dt =
    Util.time (fun () ->
        span "secmodel.collect" (fun () ->
            Theorem.collect ~seed:0 ~build ~secrets:Ni.default_secrets ()))
  in
  dt *. 1e3

let exhaustive_ms () =
  span "probe.secmodel" @@ fun () ->
  let machine = Machine.create (Ni.machine_config_with ~with_btb:true ~seed:0) in
  let build ~hi_prog ~seed =
    Ni.build_with_program_on ~with_btb:true ~cfg:Presets.full ~seed ~hi_prog
  in
  let (), dt =
    Util.time (fun () ->
        span "secmodel.exhaustive" (fun () ->
            List.iter
              (fun ku ->
                let r = Exhaustive.check ~build ku.Exhaustive.ku_universe in
                if r.Exhaustive.violations <> 0 then failwith "exhaustive lemma refuted under full")
              (Exhaustive.kind_universes ~machine ())))
  in
  dt *. 1e3

(* ------------------------------------------------------------------ *)
(* channel: one attack transmission, one Blahut–Arimoto solve *)

let channel () =
  span "probe.channel" @@ fun () ->
  let e = List.hd Catalog.all in
  let scen = e.Catalog.scenario () in
  let secret = List.hd scen.Attack.symbols in
  let trials = 10 in
  let (), trial_s =
    Util.time (fun () ->
        for i = 1 to trials do
          ignore
            (span "channel.attack_trial" (fun () ->
                 Attack.run_trial scen ~cfg:Presets.none ~seed:i ~secret))
        done)
  in
  let outcome = Attack.measure ~seeds:[ 0; 1 ] scen ~cfg:Presets.none () in
  let mat = Attack.matrix outcome in
  let cap_ns =
    ns_per ~iters:50 (fun _ ->
        ignore (Sys.opaque_identity (span "channel.capacity" (fun () -> Capacity.blahut_arimoto mat))))
  in
  [
    ("channel.attack_trial_ms", trial_s /. float_of_int trials *. 1e3);
    ("channel.capacity_us", cap_ns /. 1e3);
  ]

(* ------------------------------------------------------------------ *)
(* engine: task dispatch, checkpoint write, frame decode *)

let engine ~dir sup =
  span "probe.engine" @@ fun () ->
  let n = 20_000 in
  let items = List.init n Fun.id in
  let (_ : int list), dispatch_s =
    Util.time (fun () ->
        span "engine.dispatch" (fun () ->
            match Engine.Supervisor.pool sup with
            | Some p -> Engine.Pool.map p succ items
            | None -> List.map succ items))
  in
  let payload = String.init 65_536 (fun i -> Char.chr (32 + (Util.mix 5 i mod 90))) in
  let path = Filename.concat dir "probe.ckpt" in
  let saves = 10 in
  let (), save_s =
    Util.time (fun () ->
        for _ = 1 to saves do
          span "engine.checkpoint_save" (fun () -> Engine.Checkpoint.save ~path payload)
        done)
  in
  Sys.remove path;
  let frame = Engine.Frame.encode ~magic:"tprobench" ~version:1 (String.sub payload 0 256) in
  let decode =
    ns_per ~iters:20_000 (fun _ ->
        match Engine.Frame.decode ~magic:"tprobench" ~version:1 frame with
        | Ok p -> ignore (Sys.opaque_identity p)
        | Error _ -> failwith "frame decode failed")
  in
  [
    ("engine.dispatch_us", dispatch_s /. float_of_int n *. 1e6);
    ("engine.checkpoint_save_ms", save_s /. float_of_int saves *. 1e3);
    ("engine.frame_decode_ns", decode);
  ]

(* ------------------------------------------------------------------ *)
(* serve: wire round trip, journal append and sync, job execution *)

let serve ~dir ~(fuzz_kinds : Serve.Job.kind list) =
  span "probe.serve" @@ fun () ->
  let job i = { Serve.Job.id = Printf.sprintf "probe-%06d" i; deadline = 0; kind = Serve.Job.Spin 20 } in
  let roundtrip =
    ns_per ~iters:20_000 (fun i ->
        let d = Serve.Wire.decoder () in
        Engine.Frame.Decoder.feed d (Serve.Wire.encode_request (Serve.Wire.Submit (job i)));
        Engine.Frame.Decoder.feed d
          (Serve.Wire.encode_response
             (Serve.Wire.Result { id = (job i).Serve.Job.id; outcome = Ok "spun 20" }));
        let next () =
          match Engine.Frame.Decoder.pop d with
          | Ok (Some p) -> p
          | _ -> failwith "wire frame lost"
        in
        match
          (Serve.Wire.request_of_payload (next ()), Serve.Wire.response_of_payload (next ()))
        with
        | Ok _, Ok _ -> ()
        | _ -> failwith "wire decode failed")
  in
  let path = Filename.concat dir "probe.journal" in
  let j, _ = Serve.Journal.open_ ~path ~resume:false in
  let groups = 20 and per_group = 50 in
  let append_t = ref 0. and sync_t = ref 0. in
  for g = 0 to groups - 1 do
    let t0 = Util.now () in
    for k = 0 to per_group - 1 do
      span "serve.journal_append" (fun () ->
          Serve.Journal.append j (Serve.Journal.Accepted { job = job ((g * per_group) + k); tenant = "probe" }))
    done;
    let t1 = Util.now () in
    span "serve.journal_sync" (fun () -> Serve.Journal.sync j);
    append_t := !append_t +. (t1 -. t0);
    sync_t := !sync_t +. (Util.now () -. t1)
  done;
  Serve.Journal.close j;
  Sys.remove path;
  let exec kind =
    span "serve.job_execute" (fun () ->
        match Serve.Job.execute ~fuel:(Engine.Supervisor.Fuel.make None) kind with
        | Ok _ -> ()
        | Error e -> failwith ("job rejected: " ^ e))
  in
  let spin = ns_per ~iters:2_000 (fun _ -> exec (Serve.Job.Spin 200)) in
  let fuzz =
    let (), dt = Util.time (fun () -> List.iter exec fuzz_kinds) in
    dt /. float_of_int (max 1 (List.length fuzz_kinds)) *. 1e9
  in
  [
    ("serve.wire_roundtrip_ns", roundtrip);
    ("serve.journal_append_us", !append_t /. float_of_int (groups * per_group) *. 1e6);
    ("serve.journal_sync_ms", !sync_t /. float_of_int groups *. 1e3);
    ("serve.job_execute_us.spin", spin /. 1e3);
    ("serve.job_execute_us.fuzz", fuzz /. 1e3);
  ]
