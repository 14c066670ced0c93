open Tpro_kernel

let slice = 20_000
let pad = 15_000

let build ~cfg ~seed ~secret =
  let k = Kernel.create ~machine_config:(Attack.machine ~seed) cfg in
  let trojan_dom = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  let spy_dom = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  let call = if secret = 0 then Program.Sys_null else Program.Sys_info in
  let encode = Array.make 8 (Program.Syscall call) in
  ignore (Kernel.spawn k trojan_dom (Program.halted encode));
  let spy =
    Kernel.spawn k spy_dom
      [|
        Program.Read_clock;
        Program.Syscall Program.Sys_null;
        Program.Read_clock;
        Program.Syscall Program.Sys_info;
        Program.Read_clock;
        Program.Halt;
      |]
  in
  (k, spy)

(* Output: (cost of own info handler) - (cost of own null handler); warm
   handler text shows up as the smaller side. *)
let decode obs =
  match Prime_probe.clock_values obs with
  | [ t0; t1; t2 ] -> t2 - t1 - (t1 - t0)
  | _ -> -1

let scenario () =
  {
    Attack.name = "shared kernel text (Flush+Reload style)";
    symbols = [ 0; 1 ];
    build;
    decode;
    max_steps = 100_000;
  }
