open Tpro_hw
open Tpro_kernel

let spy_buf = 0x2000_0000
let trojan_buf = 0x3000_0000
let line_size = 64

let machine ~smt ~seed =
  { (Attack.machine ~seed) with Machine.n_cores = 2; smt }

let build ~smt ~cfg ~seed ~secret =
  let k = Kernel.create ~machine_config:(machine ~smt ~seed) cfg in
  let spy_dom = Kernel.create_domain k ~core:0 ~slice:1_000_000 ~pad_cycles:0 () in
  let trojan_dom =
    Kernel.create_domain k ~core:1 ~slice:1_000_000 ~pad_cycles:0 ()
  in
  Kernel.map_region k spy_dom ~vbase:spy_buf ~pages:4;
  Kernel.map_region k trojan_dom ~vbase:trojan_buf ~pages:4;
  (* the Trojan keeps a secret-sized working set hot for the whole
     duration of the spy's prime+probe *)
  let round =
    Program.concat
      [
        Prime_probe.touch_lines ~base:trojan_buf ~lines:(secret * 32)
          ~line_size;
        [| Program.Compute 200 |];
      ]
  in
  let encode = Program.concat (List.init 40 (fun _ -> round)) in
  ignore (Kernel.spawn k trojan_dom (Program.halted encode));
  let spy =
    Kernel.spawn k spy_dom
      (Program.concat
         [
           Prime_probe.prime ~base:spy_buf ~lines:256 ~line_size;
           Prime_probe.probe_shuffled ~base:spy_buf ~lines:256 ~line_size ();
           [| Program.Halt |];
         ])
  in
  (k, spy)

let scenario ~smt () =
  {
    Attack.name =
      (if smt then "hyperthread-shared L1 (concurrent)"
       else "same pair on separate physical cores");
    symbols = [ 0; 1; 2; 3; 4 ];
    build = (fun ~cfg ~seed ~secret -> build ~smt ~cfg ~seed ~secret);
    decode = (fun obs -> Prime_probe.slow_count_relative obs ~margin:15);
    max_steps = 200_000;
  }
