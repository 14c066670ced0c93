open Tpro_kernel

let slice = 20_000
let pad = 12_000

(* The Trojan targets the middle of the spy's first slice.  Its arm
   syscall completes around [arm_done]; under padded scheduling the spy
   starts exactly at slice + pad, otherwise shortly after the Trojan
   blocks.  Attackers know the system configuration, so computing the
   delay from it is fair play. *)
let aim ~cfg =
  let arm_done = 4_500 in
  let spy_start =
    if cfg.Kernel.deterministic_delivery || cfg.Kernel.pad_switch then
      slice + pad
    else 9_000
  in
  max 1 (spy_start + 5_000 - arm_done)

let build ~cfg ~seed ~secret =
  let k = Kernel.create ~machine_config:(Attack.machine ~seed) cfg in
  let trojan_dom = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  let spy_dom = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  Kernel.set_irq_owner k ~irq:1 ~dom:trojan_dom;
  let encode =
    if secret = 1 then
      [| Program.Syscall (Program.Sys_arm_irq { irq = 1; delay = aim ~cfg });
         Program.Halt |]
    else [| Program.Syscall Program.Sys_null; Program.Halt |]
  in
  ignore (Kernel.spawn k trojan_dom encode);
  let spy =
    Kernel.spawn k spy_dom
      [|
        Program.Read_clock;
        Program.Compute 10_000;
        Program.Read_clock;
        Program.Halt;
      |]
  in
  (k, spy)

let decode obs =
  match Prime_probe.clock_values obs with
  | [ t0; t1 ] -> t1 - t0
  | _ -> -1

let scenario () =
  {
    Attack.name = "interrupt channel";
    symbols = [ 0; 1 ];
    build;
    decode;
    max_steps = 100_000;
  }
