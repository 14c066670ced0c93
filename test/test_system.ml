open Tpro_kernel
open Tpro_secmodel
open Time_protection

let machine = Tpro_hw.Machine.default_config
let alice_buf = 0x2000_0000
let bob_buf = 0x3000_0000

let simple_spec () =
  System.spec ~machine ~cfg:Presets.full
    [
      System.domain ~slice:10_000 ~pad_cycles:20_000
        ~regions:[ (alice_buf, 2) ]
        ~programs:
          [
            [|
              Program.Read_clock;
              Program.Load alice_buf;
              Program.Read_clock;
              Program.Halt;
            |];
          ]
        ~observer:true ();
      System.domain ~slice:10_000 ~pad_cycles:20_000
        ~programs:[ [| Program.Compute 500; Program.Halt |] ]
        ();
    ]

let test_build_and_run () =
  let run = System.build (simple_spec ()) in
  Kernel.run run.Nonint.kernel;
  Alcotest.(check bool) "everything halted" true
    (Kernel.all_halted run.Nonint.kernel);
  match List.map Thread.observations run.Nonint.observers with
  | [ [ Event.Clock a; Event.Clock b ] ] ->
    Alcotest.(check bool) "time advanced" true (b > a)
  | _ -> Alcotest.fail "expected one thread with two clock readings"

let test_irq_ownership () =
  let run =
    System.build
      (System.spec ~machine ~cfg:Presets.full
         [ System.domain ~slice:1_000 ~pad_cycles:1_000 ~irqs:[ 2; 3 ] () ])
  in
  let irqs = Kernel.irqs run.Nonint.kernel in
  Alcotest.(check int) "irq 2 owned" 0 (Irq.owner irqs 2);
  Alcotest.(check int) "irq 3 owned" 0 (Irq.owner irqs 3)

(* The build runs phase by phase: every domain is created and every
   region mapped before [tweak] runs, and every thread is spawned after.
   Under [none] all domains draw frames from one pool in allocation
   order, so every region frame sits below every code frame; a
   domain-by-domain build would put domain 0's code frames below domain
   1's region. *)
let test_build_order () =
  let regions = [ (alice_buf, 2); (bob_buf, 3) ] in
  let seen_by_tweak = ref [] in
  let tweak k =
    seen_by_tweak :=
      List.map2
        (fun (dom : Domain.t) (vbase, _) ->
          ( Kernel.vaddr_to_paddr k dom vbase <> None,
            List.length (Domain.threads dom) ))
        (Kernel.domains k) regions
  in
  let run =
    System.build
      (System.spec ~machine ~cfg:Presets.none ~tweak
         (List.map
            (fun region ->
              System.domain ~slice:1_000 ~pad_cycles:1_000 ~regions:[ region ]
                ~programs:[ [| Program.Compute 10; Program.Halt |] ]
                ())
            regions))
  in
  Alcotest.(check (list (pair bool int)))
    "tweak sees every domain and region, no thread"
    [ (true, 0); (true, 0) ] !seen_by_tweak;
  let k = run.Nonint.kernel in
  let page_bits = Kernel.page_bits k in
  let frames ~of_region =
    List.concat_map
      (fun ((dom : Domain.t), (vbase, pages)) ->
        let first = vbase lsr page_bits in
        Hashtbl.fold
          (fun vpn pfn acc ->
            let in_region = vpn >= first && vpn < first + pages in
            if in_region = of_region then pfn :: acc else acc)
          dom.Domain.page_table [])
      (List.combine (Kernel.domains k) regions)
  in
  let region_frames = frames ~of_region:true
  and code_frames = frames ~of_region:false in
  Alcotest.(check int) "five region frames" 5 (List.length region_frames);
  Alcotest.(check bool) "code frames mapped" true (code_frames <> []);
  Alcotest.(check bool) "every region frame below every code frame" true
    (List.fold_left max min_int region_frames
    < List.fold_left min max_int code_frames)

(* Each remaining field reaches the kernel. *)
let test_fields_honoured () =
  let halt = [| Program.Halt |] in
  let send = [| Program.Syscall (Program.Sys_send { ep = 5; msg = 7 }); Program.Halt |]
  and recv = [| Program.Syscall (Program.Sys_recv { ep = 5 }); Program.Halt |] in
  let spec ?n_endpoints ?schedules () =
    System.spec ?n_endpoints ~n_irqs:12 ?schedules
      ~machine:{ machine with Tpro_hw.Machine.n_cores = 2 }
      ~cfg:Presets.full
      [
        System.domain ~slice:1_000 ~pad_cycles:1_000 ~programs:[ send ] ();
        System.domain ~slice:1_000 ~pad_cycles:1_000 ~n_colours:2
          ~programs:[ recv; halt ] ~observer:true ();
        System.domain ~core:1 ~slice:1_000 ~pad_cycles:1_000 ();
      ]
  in
  let run = System.build (spec ~n_endpoints:6 ~schedules:[ (0, [| 1; 0 |]) ] ()) in
  let k = run.Nonint.kernel in
  let dom i = Kernel.domain k i in
  Alcotest.(check (list int)) "core" [ 0; 0; 1 ]
    (List.map (fun i -> (dom i).Domain.core) [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "n_colours" [ 1; 2; 1 ]
    (List.map (fun i -> List.length (dom i).Domain.colours) [ 0; 1; 2 ]);
  Alcotest.(check int) "schedules: domain 1 runs first on core 0" 1
    (Kernel.current_domain k ~core:0).Domain.did;
  Alcotest.(check int) "n_irqs" 12 (Irq.n_irqs (Kernel.irqs k));
  Alcotest.(check (list int)) "observer: domain 1's threads, in order"
    (List.map (fun (th : Thread.t) -> th.Thread.tid) (Domain.threads (dom 1)))
    (List.map (fun (th : Thread.t) -> th.Thread.tid) run.Nonint.observers);
  Kernel.run k;
  Alcotest.(check bool) "n_endpoints: endpoint 5 delivers" true
    (Kernel.all_halted k);
  Alcotest.check_raises "default endpoints stop at 3"
    (Invalid_argument "Ipc: endpoint out of range") (fun () ->
      Kernel.run (System.build (spec ())).Nonint.kernel);
  Alcotest.check_raises "an invalid schedule is rejected"
    (Invalid_argument
       ("System.build: "
       ^ Sched.error_to_string (Sched.Out_of_range { index = 3; n_domains = 3 })))
    (fun () -> ignore (System.build (spec ~schedules:[ (1, [| 3 |]) ] ())))

let suite =
  [
    Alcotest.test_case "build and run" `Quick test_build_and_run;
    Alcotest.test_case "irq ownership" `Quick test_irq_ownership;
    Alcotest.test_case "build order is phase by phase" `Quick test_build_order;
    Alcotest.test_case "every field is honoured" `Quick test_fields_honoured;
  ]
