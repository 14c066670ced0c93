open Tpro_kernel
open Tpro_secmodel
open Time_protection

(* A reduced universe keeps the exhaustive tests quick: 4^2 = 16 programs
   under one seed. *)
let small_universe =
  {
    Exhaustive.hi_len = 2;
    hi_alphabet =
      [
        Program.Load 0x4000_0000;
        Program.Store 0x4000_0000;
        Program.Compute 7;
        Program.Syscall Program.Sys_null;
      ];
    seeds = [ 0 ];
  }

let build cfg ~hi_prog ~seed =
  Ni_scenario.build_with_program_on ~with_btb:false ~cfg ~seed ~hi_prog

let test_enumerate_complete () =
  let programs = Exhaustive.enumerate small_universe in
  Alcotest.(check int) "4^2 programs" 16 (List.length programs);
  Alcotest.(check int) "universe_size agrees" 16
    (Exhaustive.universe_size small_universe);
  Alcotest.(check int) "no duplicates" 16
    (List.length (List.sort_uniq compare programs));
  List.iter
    (fun p ->
      Alcotest.(check int) "length + halt" 3 (Array.length p);
      match p.(2) with
      | Program.Halt -> ()
      | _ -> Alcotest.fail "must end in Halt")
    programs

let test_exhaustive_full_holds () =
  let r = Exhaustive.check ~build:(build Presets.full) small_universe in
  Alcotest.(check int) "zero divergent programs" 0 r.Exhaustive.violations;
  Alcotest.(check int) "all executed" 16 r.Exhaustive.executions

let test_exhaustive_none_leaks () =
  let r = Exhaustive.check ~build:(build Presets.none) small_universe in
  Alcotest.(check bool) "most programs leak" true (r.Exhaustive.violations > 8);
  Alcotest.(check bool) "counter-example reported" true
    (r.Exhaustive.first_violation <> None)

let test_exhaustive_ablation_leaks () =
  (* the clone ablation must be caught even in the small universe: the
     alphabet contains a system call, whose kernel path is shared *)
  let u = { small_universe with Exhaustive.hi_len = 3 } in
  let r = Exhaustive.check ~build:(build Presets.without_clone) u in
  Alcotest.(check bool) "shared kernel text found by enumeration" true
    (r.Exhaustive.violations > 0)

let test_mutual_full_holds () =
  let c = Mutual.check ~seeds:[ 0 ] ~secret_values:[ 0; 1 ] ~cfg:Presets.full () in
  Alcotest.(check bool) "mutual NI holds" true c.Proofs.holds

let test_mutual_none_fails () =
  let c = Mutual.check ~seeds:[ 0 ] ~secret_values:[ 0; 1 ] ~cfg:Presets.none () in
  Alcotest.(check bool) "mutual NI violated" false c.Proofs.holds

let test_mutual_build_shape () =
  let k, observers = Mutual.build ~cfg:Presets.full ~seed:0 ~secrets:[| 0; 0; 0 |] in
  Alcotest.(check int) "three observers" Mutual.n_domains (Array.length observers);
  Alcotest.(check int) "three domains" 3 (List.length (Kernel.domains k));
  Alcotest.check_raises "secret count enforced"
    (Invalid_argument "Mutual.build: need one secret per domain") (fun () ->
      ignore (Mutual.build ~cfg:Presets.full ~seed:0 ~secrets:[| 1 |]))

let suite =
  [
    Alcotest.test_case "enumerate complete" `Quick test_enumerate_complete;
    Alcotest.test_case "exhaustive: full holds" `Slow test_exhaustive_full_holds;
    Alcotest.test_case "exhaustive: none leaks" `Slow test_exhaustive_none_leaks;
    Alcotest.test_case "exhaustive: ablation leaks" `Slow
      test_exhaustive_ablation_leaks;
    Alcotest.test_case "mutual: full holds" `Slow test_mutual_full_holds;
    Alcotest.test_case "mutual: none fails" `Slow test_mutual_none_fails;
    Alcotest.test_case "mutual: build shape" `Quick test_mutual_build_shape;
  ]
