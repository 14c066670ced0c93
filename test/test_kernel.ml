open Tpro_hw
open Tpro_kernel

let small_machine =
  {
    Machine.default_config with
    Machine.n_frames = 512;
    llc_geom = Cache.geometry ~sets:256 ~ways:4 ~line_bits:6 ();
    (* 256 sets * 64B = 16 KiB span -> 4 colours *)
  }

let boot ?(cfg = Kernel.config_none) () = Kernel.create ~machine_config:small_machine cfg

let test_boot () =
  let k = boot () in
  Alcotest.(check int) "4 colours" 4 (Kernel.n_colours k);
  Alcotest.(check (list int)) "no domains yet" [] (List.map (fun (d : Domain.t) -> d.Domain.did) (Kernel.domains k))

let test_create_domain_colouring_on () =
  let k = boot ~cfg:{ Kernel.config_full with Kernel.kernel_clone = false } () in
  let d0 = Kernel.create_domain k ~slice:1000 ~pad_cycles:500 () in
  let d1 = Kernel.create_domain k ~slice:1000 ~pad_cycles:500 () in
  Alcotest.(check (list int)) "domain 0 colours" [ 1 ] d0.Domain.colours;
  Alcotest.(check (list int)) "domain 1 colours" [ 2 ] d1.Domain.colours

let test_create_domain_colouring_off () =
  let k = boot () in
  let d0 = Kernel.create_domain k ~slice:1000 ~pad_cycles:0 () in
  Alcotest.(check (list int)) "all colours" [ 0; 1; 2; 3 ] d0.Domain.colours

let test_kernel_clone () =
  let k = boot ~cfg:Kernel.config_full () in
  let d0 = Kernel.create_domain k ~slice:1000 ~pad_cycles:500 () in
  let img = Kernel.image_of_domain k d0 in
  Alcotest.(check bool) "cloned image differs from shared" false
    (Kclone.same_text img (Kernel.shared_image k));
  Alcotest.(check int) "image owned by domain" d0.Domain.did (Kclone.owner img);
  (* clone text frames must have the domain's colours *)
  let alloc = Kernel.allocator k in
  List.iter
    (fun f ->
      Alcotest.(check bool) "text frame in domain colours" true
        (List.mem (Frame_alloc.colour_of_frame alloc f) d0.Domain.colours))
    (Kclone.text_frames img)

let test_no_clone_without_flag () =
  let k = boot ~cfg:{ Kernel.config_full with Kernel.kernel_clone = false } () in
  let d0 = Kernel.create_domain k ~slice:1000 ~pad_cycles:500 () in
  Alcotest.(check bool) "uses shared image" true
    (Kclone.same_text (Kernel.image_of_domain k d0) (Kernel.shared_image k))

let test_map_region_colours () =
  let k = boot ~cfg:{ Kernel.config_full with Kernel.kernel_clone = false } () in
  let d0 = Kernel.create_domain k ~slice:1000 ~pad_cycles:500 () in
  Kernel.map_region k d0 ~vbase:0x20000000 ~pages:4;
  let alloc = Kernel.allocator k in
  List.iter
    (fun vpn ->
      match Domain.translate d0 vpn with
      | None -> Alcotest.fail "mapped page must translate"
      | Some pfn ->
        Alcotest.(check bool) "frame colour of domain" true
          (List.mem (Frame_alloc.colour_of_frame alloc pfn) d0.Domain.colours))
    (Domain.mapped_vpns d0)

let test_spawn_and_run_halt () =
  let k = boot () in
  let d0 = Kernel.create_domain k ~slice:1000 ~pad_cycles:0 () in
  let th = Kernel.spawn k d0 [| Program.Compute 10; Program.Halt |] in
  Kernel.run k;
  Alcotest.(check bool) "halted" true (th.Thread.state = Thread.Halted);
  Alcotest.(check bool) "everything halted" true (Kernel.all_halted k)

let test_observations_clock () =
  let k = boot () in
  let d0 = Kernel.create_domain k ~slice:100000 ~pad_cycles:0 () in
  let th =
    Kernel.spawn k d0
      [| Program.Read_clock; Program.Compute 100; Program.Read_clock; Program.Halt |]
  in
  Kernel.run k;
  match Thread.observations th with
  | [ Event.Clock a; Event.Clock b ] ->
    Alcotest.(check bool) "time moved forward by at least the compute" true
      (b - a >= 100)
  | _ -> Alcotest.fail "expected two clock observations"

let test_timed_load_warm_cold () =
  let k = boot () in
  let d0 = Kernel.create_domain k ~slice:1000000 ~pad_cycles:0 () in
  Kernel.map_region k d0 ~vbase:0x20000000 ~pages:1;
  let th =
    Kernel.spawn k d0
      [|
        Program.Timed_load 0x20000000;
        Program.Timed_load 0x20000000;
        Program.Halt;
      |]
  in
  Kernel.run k;
  match Thread.observations th with
  | [ Event.Latency cold; Event.Latency warm ] ->
    Alcotest.(check bool) "second access faster" true (warm < cold)
  | _ -> Alcotest.fail "expected two latencies"

let test_fault_halts_thread () =
  let k = boot () in
  let d0 = Kernel.create_domain k ~slice:1000 ~pad_cycles:0 () in
  let th = Kernel.spawn k d0 [| Program.Load 0x66600000; Program.Halt |] in
  Kernel.run k;
  Alcotest.(check bool) "thread halted by fault" true
    (th.Thread.state = Thread.Halted);
  Alcotest.(check bool) "fault event recorded" true
    (List.exists
       (function Event.Fault _ -> true | _ -> false)
       (Kernel.events k))

let test_domain_switching_round_robin () =
  let k = boot () in
  let d0 = Kernel.create_domain k ~slice:2000 ~pad_cycles:0 () in
  let d1 = Kernel.create_domain k ~slice:2000 ~pad_cycles:0 () in
  let mk n = Array.append (Array.make n (Program.Compute 100)) [| Program.Halt |] in
  let t0 = Kernel.spawn k d0 (mk 100) in
  let t1 = Kernel.spawn k d1 (mk 100) in
  Kernel.run k;
  Alcotest.(check bool) "both ran to completion" true
    (t0.Thread.state = Thread.Halted && t1.Thread.state = Thread.Halted);
  let switches =
    List.filter (function Event.Switch _ -> true | _ -> false) (Kernel.events k)
  in
  Alcotest.(check bool) "several switches happened" true
    (List.length switches >= 2)

let test_padded_switch_constant_slot () =
  let cfg = { Kernel.config_full with Kernel.kernel_clone = false } in
  let k = boot ~cfg () in
  let d0 = Kernel.create_domain k ~slice:5000 ~pad_cycles:8000 () in
  let d1 = Kernel.create_domain k ~slice:5000 ~pad_cycles:8000 () in
  Kernel.map_region k d0 ~vbase:0x20000000 ~pages:1;
  (* domain 0 dirties varying amounts of cache; switch slots must not vary *)
  let dirty =
    Array.init 40 (fun i -> Program.Store (0x20000000 + (i * 64 mod 4096)))
  in
  ignore (Kernel.spawn k d0 (Array.append dirty [| Program.Halt |]));
  ignore (Kernel.spawn k d1 (Array.make 1 (Program.Compute 50)));
  Kernel.run k ~max_steps:20000;
  let slots =
    List.filter_map
      (fun e ->
        match e with
        | Event.Switch { from_dom = 0; slice_start; finish; _ } ->
          Some (finish - slice_start)
        | _ -> None)
      (Kernel.events k)
  in
  Alcotest.(check bool) "at least one switch from domain 0" true (slots <> []);
  List.iter
    (fun s -> Alcotest.(check int) "slot = slice + pad" (5000 + 8000) s)
    slots;
  Alcotest.(check bool) "no overrun" true
    (not (List.exists Event.is_overrun (Kernel.events k)))

let test_unpadded_switch_varies () =
  let cfg = { Kernel.config_none with Kernel.flush_on_switch = true } in
  let k = boot ~cfg () in
  let d0 = Kernel.create_domain k ~slice:5000 ~pad_cycles:0 () in
  let _d1 = Kernel.create_domain k ~slice:5000 ~pad_cycles:0 () in
  Kernel.map_region k d0 ~vbase:0x20000000 ~pages:1;
  let dirty =
    Array.init 60 (fun i -> Program.Store (0x20000000 + (i * 64 mod 4096)))
  in
  ignore (Kernel.spawn k d0 (Array.append dirty [| Program.Halt |]));
  Kernel.run k ~max_steps:20000;
  let durations =
    List.filter_map
      (fun e ->
        match e with
        | Event.Switch { from_dom = 0; start; finish; _ } -> Some (finish - start)
        | _ -> None)
      (Kernel.events k)
  in
  (* the first switch (dirty cache) must be slower than a later one
     (cache cleaned by the flush) *)
  match durations with
  | a :: rest when rest <> [] ->
    Alcotest.(check bool) "dirty switch slower than clean" true
      (List.exists (fun b -> a > b) rest)
  | _ -> Alcotest.fail "expected at least two switches from domain 0"

let test_ipc_rendezvous () =
  let k = boot () in
  let d0 = Kernel.create_domain k ~slice:5000 ~pad_cycles:0 () in
  let d1 = Kernel.create_domain k ~slice:5000 ~pad_cycles:0 () in
  ignore
    (Kernel.spawn k d0
       [| Program.Syscall (Program.Sys_send { ep = 0; msg = 1234 }); Program.Halt |]);
  let rx =
    Kernel.spawn k d1
      [| Program.Syscall (Program.Sys_recv { ep = 0 }); Program.Read_clock; Program.Halt |]
  in
  Kernel.run k;
  Alcotest.(check bool) "receiver got the message" true
    (List.exists
       (function Event.Recv 1234 -> true | _ -> false)
       (Thread.observations rx));
  Alcotest.(check bool) "delivery event" true
    (List.exists
       (function Event.Ipc_delivered _ -> true | _ -> false)
       (Kernel.events k))

let test_ipc_sender_blocks_first () =
  (* receiver arrives second: sender must queue and be unblocked later *)
  let k = boot () in
  let d0 = Kernel.create_domain k ~slice:2000 ~pad_cycles:0 () in
  let d1 = Kernel.create_domain k ~slice:2000 ~pad_cycles:0 () in
  let tx =
    Kernel.spawn k d0
      [| Program.Syscall (Program.Sys_send { ep = 0; msg = 7 }); Program.Read_clock; Program.Halt |]
  in
  let rx =
    Kernel.spawn k d1
      [| Program.Compute 500; Program.Syscall (Program.Sys_recv { ep = 0 }); Program.Halt |]
  in
  Kernel.run k;
  Alcotest.(check bool) "sender completed" true (tx.Thread.state = Thread.Halted);
  Alcotest.(check bool) "receiver got msg" true
    (List.mem (Event.Recv 7) (Thread.observations rx))

let test_irq_partitioning () =
  let run partition =
    let cfg = { Kernel.config_none with Kernel.partition_irqs = partition } in
    let k = boot ~cfg () in
    let trojan_dom = Kernel.create_domain k ~slice:3000 ~pad_cycles:0 () in
    let victim_dom = Kernel.create_domain k ~slice:3000 ~pad_cycles:0 () in
    Kernel.set_irq_owner k ~irq:1 ~dom:trojan_dom;
    (* trojan arms an interrupt to land in the middle of the victim's slice *)
    ignore
      (Kernel.spawn k trojan_dom
         [| Program.Syscall (Program.Sys_arm_irq { irq = 1; delay = 4000 }); Program.Halt |]);
    ignore
      (Kernel.spawn k victim_dom
         (Array.append
            (Array.make 40 (Program.Compute 50))
            [| Program.Halt |]));
    Kernel.run k ~max_steps:20000;
    List.filter_map
      (function
        | Event.Irq_handled { during_dom; owner_dom; _ } ->
          Some (during_dom, owner_dom)
        | _ -> None)
      (Kernel.events k)
  in
  (match run false with
  | [ (during, owner) ] ->
    Alcotest.(check int) "unpartitioned: handled during victim" 1 during;
    Alcotest.(check int) "owner is trojan" 0 owner
  | l ->
    Alcotest.failf "expected exactly one irq handling, got %d" (List.length l));
  match run true with
  | [ (during, _) ] ->
    Alcotest.(check int) "partitioned: deferred to owner's slice" 0 during
  | l ->
    Alcotest.failf "expected exactly one irq handling, got %d" (List.length l)

let test_cost_tracing () =
  let k = boot () in
  let d0 = Kernel.create_domain k ~slice:100000 ~pad_cycles:0 () in
  Kernel.map_region k d0 ~vbase:0x20000000 ~pages:1;
  let th =
    Kernel.spawn k d0
      [|
        Program.Compute 10;
        Program.Load 0x20000000;
        Program.Syscall Program.Sys_null;
        Program.Halt;
      |]
  in
  Thread.set_traced th true;
  Kernel.run k;
  match Thread.cost_trace th with
  | [ (Thread.User, _); (Thread.User, _); (Thread.Trap, _); (Thread.User, _) ]
    ->
    ()
  | tr ->
    Alcotest.failf "unexpected trace shape (%d entries)" (List.length tr)

let test_deterministic_delivery_holds_core () =
  (* with deterministic delivery the idle switch happens at the slice
     boundary, not when the domain runs out of work *)
  let run det =
    let cfg =
      { Kernel.config_none with Kernel.deterministic_delivery = det }
    in
    let k = boot ~cfg () in
    let d0 = Kernel.create_domain k ~slice:10000 ~pad_cycles:0 () in
    let d1 = Kernel.create_domain k ~slice:10000 ~pad_cycles:0 () in
    ignore (Kernel.spawn k d0 [| Program.Compute 100; Program.Halt |]);
    ignore (Kernel.spawn k d1 [| Program.Compute 100; Program.Halt |]);
    Kernel.run k ~max_steps:2000;
    List.filter_map
      (function
        | Event.Switch { from_dom = 0; slice_start; start; _ } ->
          Some (start - slice_start)
        | _ -> None)
      (Kernel.events k)
    |> List.hd
  in
  Alcotest.(check bool) "eager handover well before slice end" true
    (run false < 5000);
  Alcotest.(check bool) "deterministic delivery waits for the boundary" true
    (run true >= 10000)

(* A random domain and a clock reader under full protection: the
   receiver's observations, the event trace and the final clock. *)
let run_two_domains ?machine () =
  let k =
    Kernel.create ~machine_config:small_machine ?machine Kernel.config_full
  in
  let d0 = Kernel.create_domain k ~slice:4000 ~pad_cycles:9000 () in
  let d1 = Kernel.create_domain k ~slice:4000 ~pad_cycles:9000 () in
  Kernel.map_region k d0 ~vbase:0x20000000 ~pages:1;
  let rng = Rng.create 33 in
  ignore
    (Kernel.spawn k d0
       (Program.random rng ~len:60 ~data_base:0x20000000 ~data_bytes:4096));
  let rx =
    Kernel.spawn k d1
      [| Program.Read_clock; Program.Compute 50; Program.Read_clock; Program.Halt |]
  in
  Kernel.run k ~max_steps:50000;
  (Thread.observations rx, Kernel.events k, Kernel.now k ~core:0)

let test_kernel_determinism () =
  Alcotest.(check bool) "two identical boots give identical traces" true
    (run_two_domains () = run_two_domains ())

(* Booting on a machine that already ran a system is booting on a fresh
   one; a machine of another configuration is refused. *)
let test_boot_on_used_machine () =
  let m = Machine.create small_machine in
  let fresh = run_two_domains () in
  ignore (run_two_domains ~machine:m ());
  Alcotest.(check bool) "same observations, events and clock" true
    (run_two_domains ~machine:m () = fresh);
  Alcotest.check_raises "another configuration is refused"
    (Invalid_argument "Kernel.create: ~machine has another configuration")
    (fun () ->
      ignore
        (Kernel.create ~machine_config:Machine.default_config ~machine:m
           Kernel.config_full))

(* A registered Flushable resource the machine silently fails to flush
   must be caught by the switch-time coverage audit in Kernel.do_switch. *)
let test_uncovered_flushable () =
  let cfg =
    {
      small_machine with
      Machine.fault = Some (Machine.Skip_flush "victim write buffer");
    }
  in
  let k =
    Kernel.create ~machine_config:cfg
      { Kernel.config_full with Kernel.kernel_clone = false }
  in
  Machine.register_core_resource (Kernel.machine k) ~core:0
    (Resource.make ~name:"victim write buffer"
       ~classification:Resource.Flushable
       ~digest:(fun () -> 42L)
       ~flush:(fun () -> Resource.no_flush)
       ());
  let d0 = Kernel.create_domain k ~slice:1000 ~pad_cycles:100_000 () in
  let d1 = Kernel.create_domain k ~slice:1000 ~pad_cycles:100_000 () in
  ignore (Kernel.spawn k d0 [| Program.Compute 5000; Program.Halt |]);
  ignore (Kernel.spawn k d1 [| Program.Compute 5000; Program.Halt |]);
  Alcotest.check_raises "kernel audits flush coverage"
    (Kernel.Uncovered_flushable "victim write buffer") (fun () ->
      Kernel.run k ~max_steps:50_000)

let suite =
  [
    Alcotest.test_case "boot" `Quick test_boot;
    Alcotest.test_case "create domain (colouring)" `Quick
      test_create_domain_colouring_on;
    Alcotest.test_case "create domain (no colouring)" `Quick
      test_create_domain_colouring_off;
    Alcotest.test_case "kernel clone" `Quick test_kernel_clone;
    Alcotest.test_case "no clone without flag" `Quick test_no_clone_without_flag;
    Alcotest.test_case "map_region colours" `Quick test_map_region_colours;
    Alcotest.test_case "spawn and halt" `Quick test_spawn_and_run_halt;
    Alcotest.test_case "clock observations" `Quick test_observations_clock;
    Alcotest.test_case "timed load warm/cold" `Quick test_timed_load_warm_cold;
    Alcotest.test_case "fault halts thread" `Quick test_fault_halts_thread;
    Alcotest.test_case "round-robin switching" `Quick
      test_domain_switching_round_robin;
    Alcotest.test_case "padded switch constant slot" `Quick
      test_padded_switch_constant_slot;
    Alcotest.test_case "unpadded switch varies" `Quick test_unpadded_switch_varies;
    Alcotest.test_case "ipc rendezvous" `Quick test_ipc_rendezvous;
    Alcotest.test_case "ipc sender blocks first" `Quick
      test_ipc_sender_blocks_first;
    Alcotest.test_case "irq partitioning" `Quick test_irq_partitioning;
    Alcotest.test_case "cost tracing" `Quick test_cost_tracing;
    Alcotest.test_case "deterministic delivery holds core" `Quick
      test_deterministic_delivery_holds_core;
    Alcotest.test_case "kernel determinism" `Quick test_kernel_determinism;
    Alcotest.test_case "boot on a used machine" `Quick test_boot_on_used_machine;
    Alcotest.test_case "uncovered flushable raises" `Quick
      test_uncovered_flushable;
  ]
