open Tpro_kernel

let slice = 30_000
let pad = 15_000

(* The predictor is indexed by (pc xor history); Trojan and spy agree on
   branch tags, and the Trojan hammers each tag hard enough to saturate
   the 2-bit counters regardless of the interleaved history bits. *)
let tags = [ 3; 5; 7; 11 ]
let rounds = 48

(* Gshare indexes the pattern table with (pc xor history), so the spy
   must recreate the Trojan's training-time history (all-taken = 0xFF)
   before each probed branch; a run of taken warm-up branches on a
   bystander tag does that. *)
let warmup_tag = 99

let warmup = Array.make 8 (Program.Branch { tag = warmup_tag; taken = true })

let build ~cfg ~seed ~secret =
  let k = Kernel.create ~machine_config:(Attack.machine ~seed) cfg in
  let trojan_dom = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  let spy_dom = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  let taken = secret = 1 in
  let train =
    Array.concat
      (List.init rounds (fun _ ->
           Array.of_list
             (List.map (fun tag -> Program.Branch { tag; taken }) tags)))
  in
  ignore (Kernel.spawn k trojan_dom (Program.halted train));
  (* spy: under history 0xFF, probe each agreed tag with a not-taken
     branch — it lands exactly in the slot the Trojan trained iff the
     Trojan trained with taken branches, and then mispredicts *)
  let probe =
    Array.concat
      (List.init 12 (fun i ->
           Array.append warmup
             [|
               Program.Branch
                 { tag = List.nth tags (i mod List.length tags); taken = false };
             |]))
  in
  let spy =
    Kernel.spawn k spy_dom
      (Program.concat
         [ [| Program.Read_clock |]; probe; [| Program.Read_clock; Program.Halt |] ])
  in
  (k, spy)

let decode obs =
  match Prime_probe.clock_values obs with
  | [ t0; t1 ] -> t1 - t0
  | _ -> -1

let scenario () =
  {
    Attack.name = "branch-predictor training channel";
    symbols = [ 0; 1 ];
    build;
    decode;
    max_steps = 100_000;
  }
