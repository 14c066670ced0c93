open Tpro_hw
open Tpro_kernel

let slice = 30_000
let pad = 15_000

(* The default machine plus a BTB — configured purely through
   [btb_entries]; everything else (digesting, flushing, the taxonomy)
   picks the new resource up from the registry. *)
let machine ~seed =
  { (Attack.machine ~seed) with Machine.btb_entries = Some 64 }

(* Branch pc is tag*4 and the BTB is direct-mapped on (pc lsr 2) mod 64,
   so tags index the BTB directly; the two groups occupy disjoint BTB
   slots.  The Trojan executes taken branches at group [secret]'s tags,
   installing their targets; the spy then times one taken branch per tag
   of each group.  A probe whose target is already cached redirects
   immediately, one whose target is absent pays a second misprediction
   penalty — so the cheaper group names the secret. *)
let group0 = [ 17; 19; 23; 29 ]
let group1 = [ 33; 37; 41; 43 ]
let rounds = 24

let build ~cfg ~seed ~secret =
  let k = Kernel.create ~machine_config:(machine ~seed) cfg in
  let trojan_dom = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  let spy_dom = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  let tags = if secret = 1 then group1 else group0 in
  let train =
    Array.concat
      (List.init rounds (fun _ ->
           Array.of_list
             (List.map (fun tag -> Program.Branch { tag; taken = true }) tags)))
  in
  ignore (Kernel.spawn k trojan_dom (Program.halted train));
  let probe tags =
    Array.of_list
      (List.map (fun tag -> Program.Branch { tag; taken = true }) tags)
  in
  let spy =
    Kernel.spawn k spy_dom
      (Program.concat
         [
           [| Program.Read_clock |];
           probe group0;
           [| Program.Read_clock |];
           probe group1;
           [| Program.Read_clock; Program.Halt |];
         ])
  in
  (k, spy)

(* Three clock reads bracket the two probe phases; the signed difference
   of the phase durations flips with the trained group. *)
let decode obs =
  match Prime_probe.clock_values obs with
  | [ t0; t1; t2 ] -> (t1 - t0) - (t2 - t1)
  | _ -> min_int

let scenario () =
  {
    Attack.name = "branch-target-buffer priming channel";
    symbols = [ 0; 1 ];
    build;
    decode;
    max_steps = 100_000;
  }
