open Tpro_kernel
open Tpro_channel
open Time_protection

(* ------------------------- registers ------------------------------ *)

let test_register_semantics () =
  let k = Kernel.create Kernel.config_none in
  let d = Kernel.create_domain k ~slice:100_000 ~pad_cycles:0 () in
  Kernel.map_region k d ~vbase:0x2000_0000 ~pages:1;
  let th =
    Kernel.spawn k d ~regs:[| 5 |]
      [|
        Program.Add (1, 0, 3); (* r1 = r0 + 3 = 8 *)
        Program.Set (2, 40);
        Program.Load_idx { base = 0x2000_0000; index = 1; scale = 64 };
        Program.Halt;
      |]
  in
  Kernel.run k;
  Alcotest.(check int) "r0 preserved" 5 (Thread.reg th 0);
  Alcotest.(check int) "r1 computed" 8 (Thread.reg th 1);
  Alcotest.(check int) "r2 set" 40 (Thread.reg th 2);
  Alcotest.(check bool) "indexed load hit the cache" true
    (Tpro_hw.Cache.probe
       (Tpro_hw.Machine.l1d (Kernel.machine k) ~core:0)
       (Option.get (Kernel.vaddr_to_paddr k d (0x2000_0000 + (8 * 64)))))

let test_register_bounds () =
  let th = Thread.create ~tid:0 ~dom:0 ~code_vbase:0 [| Program.Halt |] in
  Alcotest.check_raises "bad register" (Invalid_argument "Thread: bad register")
    (fun () -> ignore (Thread.reg th 9))

let test_indexed_fault () =
  let k = Kernel.create Kernel.config_none in
  let d = Kernel.create_domain k ~slice:100_000 ~pad_cycles:0 () in
  let th =
    Kernel.spawn k d ~regs:[| 100 |]
      [| Program.Load_idx { base = 0x7000_0000; index = 0; scale = 4096 };
         Program.Halt |]
  in
  Kernel.run k;
  Alcotest.(check bool) "unmapped indexed load faults" true
    (th.Thread.state = Thread.Halted
    && List.exists
         (function Event.Fault _ -> true | _ -> false)
         (Kernel.events k))

(* ------------------------- the side channel ----------------------- *)

let test_exact_recovery_without_tp () =
  let scen = Side_channel.scenario () in
  List.iter
    (fun secret ->
      Alcotest.(check int)
        (Printf.sprintf "secret %d recovered exactly" secret)
        secret
        (Attack.run_trial scen ~cfg:Presets.none ~seed:1 ~secret))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_side_channel_capacities () =
  let cap cfg =
    (Attack.measure ~seeds:[ 0; 1; 2 ] (Side_channel.scenario ()) ~cfg ())
      .Attack.capacity_bits
  in
  Alcotest.(check bool) "3 bits without protection" true (cap Presets.none > 2.9);
  Alcotest.(check bool) "colouring cannot reach the L1" true
    (cap Presets.colour_only > 2.9);
  Alcotest.(check bool) "closed by flushing" true (cap Presets.full < 0.01)

(* "Same program, different data": the two-run check with the secret
   only in the register file — the purest form of the side-channel
   setting — must find nothing under full TP. *)
let test_same_program_different_data_ni () =
  let build cfg ~secret =
    let k =
      Kernel.create
        ~machine_config:(Ni_scenario.machine_config ~seed:0)
        cfg
    in
    let hi = Kernel.create_domain k ~slice:20_000 ~pad_cycles:20_000 () in
    let lo = Kernel.create_domain k ~slice:20_000 ~pad_cycles:20_000 () in
    Kernel.map_region k hi ~vbase:0x4000_0000 ~pages:2;
    Kernel.map_region k lo ~vbase:0x2000_0000 ~pages:2;
    (* hi: fixed program, secret in r0, table walk indexed by it *)
    ignore
      (Kernel.spawn k hi ~regs:[| secret |]
         (Program.concat
            [
              Array.concat
                (List.init 16 (fun i ->
                     [|
                       Program.Add (1, 0, i);
                       Program.Load_idx
                         { base = 0x4000_0000; index = 1; scale = 192 };
                     |]));
              [| Program.Halt |];
            ]));
    let lo_th =
      Kernel.spawn k lo
        (Program.concat
           [
             [| Program.Read_clock |];
             Prime_probe.probe ~base:0x2000_0000 ~lines:16 ~line_size:64;
             [| Program.Read_clock; Program.Halt |];
           ])
    in
    { Tpro_secmodel.Nonint.kernel = k; observers = [ lo_th ] }
  in
  let report cfg =
    let open Tpro_secmodel.Nonint in
    compare_runs (execute (build cfg) 0) (execute (build cfg) 7)
  in
  Alcotest.(check bool) "data-secret invisible under full TP" true
    (Tpro_secmodel.Nonint.secure (report Presets.full));
  Alcotest.(check bool) "data-secret leaks without TP" false
    (Tpro_secmodel.Nonint.secure (report Presets.none))

let suite =
  [
    Alcotest.test_case "register semantics" `Quick test_register_semantics;
    Alcotest.test_case "register bounds" `Quick test_register_bounds;
    Alcotest.test_case "indexed fault" `Quick test_indexed_fault;
    Alcotest.test_case "exact secret recovery" `Slow
      test_exact_recovery_without_tp;
    Alcotest.test_case "side-channel capacities" `Slow
      test_side_channel_capacities;
    Alcotest.test_case "same program, different data" `Slow
      test_same_program_different_data_ni;
  ]
