(* Building your own time-protected system with the declarative API:
   a three-domain sensor pipeline (sensor -> filter -> logger) described
   as one System.spec, with the padding attribute taken from the WCET
   analysis, and the execution timeline reconstructed afterwards.

   Run with: dune exec examples/custom_system.exe *)

open Tpro_hw
open Tpro_kernel
open Time_protection

let buf = 0x2000_0000

let sensor =
  [|
    Program.Read_clock;
    Program.Compute 800; (* sample the ADC *)
    Program.Syscall (Program.Sys_send { ep = 0; msg = 21 });
    Program.Halt;
  |]

let filter =
  [|
    Program.Syscall (Program.Sys_recv { ep = 0 });
    Program.Load buf;
    Program.Store buf;
    Program.Compute 1_500; (* run the filter kernel *)
    Program.Syscall (Program.Sys_send { ep = 1; msg = 42 });
    Program.Halt;
  |]

let logger =
  [|
    Program.Syscall (Program.Sys_recv { ep = 1 });
    Program.Read_clock;
    Program.Store buf;
    Program.Halt;
  |]

let () =
  let recommended = Wcet.recommended_pad Machine.default_config in
  Format.printf "WCET analysis recommends a padding attribute of %d cycles@.@."
    recommended;
  let domain ?regions ?observer program =
    System.domain ?regions ?observer ~slice:12_000 ~pad_cycles:recommended
      ~programs:[ program ] ()
  in
  let { Tpro_secmodel.Nonint.kernel = k; observers } =
    System.build
      (System.spec ~machine:Machine.default_config ~cfg:Presets.full
         [
           domain sensor;
           domain ~regions:[ (buf, 1) ] filter;
           domain ~regions:[ (buf, 1) ] ~observer:true logger;
         ])
  in
  Kernel.run k;
  Format.printf "pipeline completed: %b@.@." (Kernel.all_halted k);
  (match observers with
  | [ logger ] ->
    Format.printf "logger saw: %a@.@."
      (Format.pp_print_list ~pp_sep:(fun p () -> Format.pp_print_string p ", ")
         Event.pp_obs)
      (Thread.observations logger)
  | _ -> ());
  Format.printf "execution timeline:@.%a@." (Trace.pp ~limit:16) k;
  Format.printf
    "every switch slot above is exactly slice + pad: the filter's@.";
  Format.printf
    "message reaches the logger at a schedule-determined instant, however@.";
  Format.printf "long the filter kernel actually ran.@."
