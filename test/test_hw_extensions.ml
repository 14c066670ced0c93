open Tpro_hw
open Tpro_channel
open Time_protection

(* ------------------------- replacement policies ------------------- *)

let small = Cache.geometry ~sets:4 ~ways:2 ~line_bits:6 ()

let addr ~set ~tag = (tag lsl 8) lor (set lsl 6)

let test_fifo_evicts_oldest_fill () =
  let c = Cache.create ~replacement:Cache.Fifo small in
  let a0 = addr ~set:1 ~tag:1 and a1 = addr ~set:1 ~tag:2 in
  ignore (Cache.access c ~owner:0 ~write:false a0);
  ignore (Cache.access c ~owner:0 ~write:false a1);
  (* re-touching a0 must NOT save it under FIFO *)
  ignore (Cache.access c ~owner:0 ~write:false a0);
  ignore (Cache.access c ~owner:0 ~write:false (addr ~set:1 ~tag:3));
  Alcotest.(check bool) "oldest fill evicted despite recent touch" false
    (Cache.probe c a0);
  Alcotest.(check bool) "younger line survives" true (Cache.probe c a1)

let test_pseudo_random_deterministic () =
  let run () =
    let c = Cache.create ~replacement:(Cache.Pseudo_random 7) small in
    for i = 0 to 20 do
      ignore (Cache.access c ~owner:0 ~write:false (addr ~set:1 ~tag:i))
    done;
    Cache.digest c
  in
  Alcotest.(check int64) "same seed, same behaviour" (run ()) (run ())

let test_pseudo_random_set_local () =
  (* accesses to OTHER sets must not change victim choice in this set:
     the replacement state is set-local, as Case 1 requires *)
  let victim_with_noise noise =
    let c = Cache.create ~replacement:(Cache.Pseudo_random 7) small in
    for i = 0 to noise - 1 do
      ignore (Cache.access c ~owner:0 ~write:false (addr ~set:2 ~tag:i))
    done;
    ignore (Cache.access c ~owner:0 ~write:false (addr ~set:1 ~tag:1));
    ignore (Cache.access c ~owner:0 ~write:false (addr ~set:1 ~tag:2));
    ignore (Cache.access c ~owner:0 ~write:false (addr ~set:1 ~tag:3));
    (Cache.probe c (addr ~set:1 ~tag:1), Cache.probe c (addr ~set:1 ~tag:2))
  in
  Alcotest.(check (pair bool bool)) "victim independent of other sets"
    (victim_with_noise 0) (victim_with_noise 17)

let test_replacement_exposed () =
  let c = Cache.create ~replacement:Cache.Fifo small in
  Alcotest.(check bool) "policy recorded" true (Cache.replacement c = Cache.Fifo)

(* NI must hold under full TP for every replacement policy. *)
let test_ni_holds_under_all_policies () =
  List.iter
    (fun repl ->
      let build ~secret =
        let s = Ni_scenario.classic ~with_btb:false ~cfg:Presets.full ~seed:0 ~secret in
        System.build
          { s with System.machine = { s.System.machine with Machine.replacement = repl } }
      in
      let report =
        let open Tpro_secmodel.Nonint in
        compare_runs (execute build 0) (execute build 3)
      in
      Alcotest.(check bool)
        (Format.asprintf "NI holds under %s replacement"
           (match repl with
           | Cache.Lru -> "LRU"
           | Cache.Fifo -> "FIFO"
           | Cache.Pseudo_random _ -> "pseudo-random"))
        true
        (Tpro_secmodel.Nonint.secure report))
    [ Cache.Lru; Cache.Fifo; Cache.Pseudo_random 99 ]

(* ------------------------- L2 ------------------------------------- *)

let l2_config =
  {
    Machine.default_config with
    Machine.l2_geom = Some (Cache.geometry ~sets:128 ~ways:4 ~line_bits:6 ());
  }

let ident vpn = Some vpn

let test_l2_between_l1_and_llc () =
  let m = Machine.create l2_config in
  let lat = Machine.lat m in
  let load v =
    match Machine.load m ~core:0 ~asid:1 ~domain:0 ~translate:ident ~pc:0 v with
    | Ok c -> c
    | Error `Fault -> Alcotest.fail "fault"
  in
  ignore (load 0x3000);
  (* evict from the 64-set L1 with a 4 KiB stride (same L1 set every
     time); in the 128-set L2 the same stride alternates between two
     sets, so the victim line survives there *)
  for i = 1 to 4 do
    ignore (load (0x3000 + (i * 4096)))
  done;
  let c = load 0x3000 in
  Alcotest.(check bool) "L1 miss, L2 hit" true
    (c > lat.Latency.l1_hit && c < lat.Latency.llc_hit)

let test_l2_flushed_with_core () =
  let m = Machine.create l2_config in
  ignore (Machine.store m ~core:0 ~asid:1 ~domain:0 ~translate:ident ~pc:0 0x3000);
  let l2 = match Machine.l2 m ~core:0 with Some c -> c | None -> Alcotest.fail "no l2" in
  (* push the dirty line out of L1 into L2 *)
  for i = 1 to 4 do
    ignore (Machine.load m ~core:0 ~asid:1 ~domain:0 ~translate:ident ~pc:0
              (0x3000 + (i * 16384)))
  done;
  Alcotest.(check bool) "dirty line reached L2" true (Cache.dirty_count l2 > 0);
  ignore (Machine.flush_core_local m ~core:0);
  Alcotest.(check int) "L2 flushed" 0 (Cache.valid_count l2)

let test_l2_flush_cost_counts_l2_dirt () =
  let cost_with_l2_dirt dirty =
    let m = Machine.create l2_config in
    for i = 0 to dirty - 1 do
      ignore (Machine.store m ~core:0 ~asid:1 ~domain:0 ~translate:ident ~pc:0
                (0x10000 + (i * 64)))
    done;
    Machine.flush_core_local m ~core:0
  in
  Alcotest.(check bool) "more dirt, slower flush" true
    (cost_with_l2_dirt 64 > cost_with_l2_dirt 0)

let test_no_l2_by_default () =
  let m = Machine.create Machine.default_config in
  Alcotest.(check bool) "default has no L2" true (Machine.l2 m ~core:0 = None)

(* ------------------------- SMT ------------------------------------ *)

let smt_config = { Machine.default_config with Machine.n_cores = 2; smt = true }

let test_smt_shares_private_state () =
  let m = Machine.create smt_config in
  ignore (Machine.load m ~core:0 ~asid:1 ~domain:0 ~translate:ident ~pc:0 0x5000);
  Alcotest.(check bool) "sibling thread sees the line" true
    (Cache.probe (Machine.l1d m ~core:1) 0x5000);
  (* but the clocks are separate *)
  ignore (Machine.compute m ~core:0 ~cycles:100);
  Alcotest.(check bool) "clocks independent" true
    (Machine.now m ~core:0 > Machine.now m ~core:1)

let test_no_sharing_without_smt () =
  let m = Machine.create { smt_config with Machine.smt = false } in
  ignore (Machine.load m ~core:0 ~asid:1 ~domain:0 ~translate:ident ~pc:0 0x5000);
  Alcotest.(check bool) "separate L1s" false
    (Cache.probe (Machine.l1d m ~core:1) 0x5000)

(* Hardware threads 2k and 2k+1 share one registry: a resource
   registered on either thread after [create] is listed, covered by the
   switch's flush obligation and flushed on both.  Without SMT, each
   core keeps its own. *)
let test_smt_shares_registry () =
  let flushes = ref 0 in
  let buffer name =
    Resource.make ~name ~classification:Resource.Flushable
      ~digest:(fun () -> 0L)
      ~flush:(fun () ->
        incr flushes;
        Resource.no_flush)
      ()
  in
  let listed m ~core name =
    List.exists (fun r -> Resource.name r = name) (Machine.core_resources m ~core)
    && List.mem name (Machine.flushable_names m ~core)
  in
  let m = Machine.create smt_config in
  Machine.register_core_resource m ~core:0 (buffer "fill buffer");
  Machine.register_core_resource m ~core:1 (buffer "store buffer");
  List.iter
    (fun core ->
      Alcotest.(check bool)
        (Printf.sprintf "both buffers listed on thread %d" core)
        true
        (listed m ~core "fill buffer" && listed m ~core "store buffer"))
    [ 0; 1 ];
  let (_ : int) = Machine.flush_core_local m ~core:1 in
  Alcotest.(check int) "thread 1's flush resets both" 2 !flushes;
  let m = Machine.create { smt_config with Machine.smt = false } in
  Machine.register_core_resource m ~core:0 (buffer "fill buffer");
  Alcotest.(check bool) "without SMT, core 1 keeps its own registry" false
    (listed m ~core:1 "fill buffer")

let test_smt_channel_defies_full_tp () =
  let cap smt =
    (Attack.measure ~seeds:[ 0; 1 ] (Smt_channel.scenario ~smt ())
       ~cfg:Presets.full ())
      .Attack.capacity_bits
  in
  Alcotest.(check bool) "open across hyperthreads under full TP" true
    (cap true > 0.5);
  Alcotest.(check bool) "closed across physical cores" true (cap false < 0.01)

(* ------------------------- MBA throttling ------------------------- *)

let test_throttle_caps_rate () =
  let b =
    Interconnect.create ~service:8
      ~mode:(Interconnect.Throttled { window = 1000; max_per_window = 2; n_domains = 2 })
      ()
  in
  let l1 = Interconnect.request b ~domain:0 ~now:10 in
  let l2 = Interconnect.request b ~domain:0 ~now:20 in
  let l3 = Interconnect.request b ~domain:0 ~now:30 in
  Alcotest.(check bool) "first two within the window are cheap" true
    (l1 <= 16 && l2 <= 16);
  Alcotest.(check bool) "third deferred to the next window" true (l3 > 900)

let test_throttle_still_leaks () =
  (* the queue stays shared: a busy sibling still delays us *)
  let mk () =
    Interconnect.create ~service:64
      ~mode:(Interconnect.Throttled { window = 1000; max_per_window = 4; n_domains = 2 })
      ()
  in
  let quiet = mk () and busy = mk () in
  ignore (Interconnect.request busy ~domain:0 ~now:100);
  ignore (Interconnect.request busy ~domain:0 ~now:101);
  let l_quiet = Interconnect.request quiet ~domain:1 ~now:102 in
  let l_busy = Interconnect.request busy ~domain:1 ~now:102 in
  Alcotest.(check bool) "cross-domain interference survives throttling" true
    (l_busy > l_quiet)

let suite =
  [
    Alcotest.test_case "FIFO evicts oldest fill" `Quick test_fifo_evicts_oldest_fill;
    Alcotest.test_case "pseudo-random deterministic" `Quick
      test_pseudo_random_deterministic;
    Alcotest.test_case "pseudo-random set-local" `Quick
      test_pseudo_random_set_local;
    Alcotest.test_case "replacement exposed" `Quick test_replacement_exposed;
    Alcotest.test_case "NI holds under all policies" `Slow
      test_ni_holds_under_all_policies;
    Alcotest.test_case "L2 between L1 and LLC" `Quick test_l2_between_l1_and_llc;
    Alcotest.test_case "L2 flushed with core" `Quick test_l2_flushed_with_core;
    Alcotest.test_case "L2 dirt raises flush cost" `Quick
      test_l2_flush_cost_counts_l2_dirt;
    Alcotest.test_case "no L2 by default" `Quick test_no_l2_by_default;
    Alcotest.test_case "SMT shares private state" `Quick
      test_smt_shares_private_state;
    Alcotest.test_case "no sharing without SMT" `Quick test_no_sharing_without_smt;
    Alcotest.test_case "SMT threads share one registry" `Quick
      test_smt_shares_registry;
    Alcotest.test_case "SMT channel defies full TP" `Slow
      test_smt_channel_defies_full_tp;
    Alcotest.test_case "throttle caps rate" `Quick test_throttle_caps_rate;
    Alcotest.test_case "throttle still leaks" `Quick test_throttle_still_leaks;
  ]
