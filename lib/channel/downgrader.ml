open Tpro_kernel

let slice = 20_000
let pad = 12_000

let base_work = 3_000
let unit_work = 500
let n_secrets = 8
let wcet = base_work + ((n_secrets - 1) * unit_work) + 200

let build_with ~crypto ~cfg ~seed ~secret =
  let k = Kernel.create ~machine_config:(Attack.machine ~seed) cfg in
  let hi = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  let lo = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  ignore (Kernel.spawn k hi (crypto ~secret));
  let net =
    Kernel.spawn k lo
      [|
        Program.Syscall (Program.Sys_recv { ep = 0 });
        Program.Read_clock;
        Program.Halt;
      |]
  in
  (k, net)

(* The leaky crypto component: running time encodes the secret. *)
let crypto ~secret =
  [|
    Program.Compute (base_work + (secret * unit_work));
    Program.Syscall (Program.Sys_send { ep = 0; msg = 0 });
    Program.Halt;
  |]

(* Application-level padding (Sect. 4.3): compute, then busy-pad to the
   WCET bound before sending. *)
let crypto_padded ~secret =
  let work = base_work + (secret * unit_work) in
  [|
    Program.Compute work;
    Program.Compute (wcet - work);
    Program.Syscall (Program.Sys_send { ep = 0; msg = 0 });
    Program.Halt;
  |]

let decode obs =
  match Prime_probe.clock_values obs with [ t ] -> t | _ -> -1

let scenario () =
  {
    Attack.name = "downgrader arrival time (Fig. 1)";
    symbols = List.init n_secrets (fun i -> i);
    build = build_with ~crypto;
    decode;
    max_steps = 100_000;
  }

let padded_scenario () =
  {
    Attack.name = "downgrader, WCET-padded crypto";
    symbols = List.init n_secrets (fun i -> i);
    build = build_with ~crypto:crypto_padded;
    decode;
    max_steps = 100_000;
  }
