open Tpro_hw
open Tpro_kernel

let shared_bus = Interconnect.Shared
let tdma_bus = Interconnect.Partitioned { slot = 128; n_domains = 2 }

let mba_bus =
  Interconnect.Throttled { window = 1_024; max_per_window = 6; n_domains = 2 }

let spy_buf = 0x2000_0000
let trojan_buf = 0x3000_0000
let page = 4096

let machine ~bus ~seed =
  {
    (Attack.machine ~seed) with
    Machine.n_cores = 2;
    bus_mode = bus;
    bus_service = 96;
  }

(* Cold accesses: one distinct line per page, so every access goes to
   DRAM through the interconnect. *)
let cold_addrs ~buf ~n =
  List.init n (fun i -> buf + (i * page) + (i mod 64 * 64))

let build ~bus ~cfg ~seed ~secret =
  let k = Kernel.create ~machine_config:(machine ~bus ~seed) cfg in
  let spy_dom = Kernel.create_domain k ~core:0 ~slice:1_000_000 ~pad_cycles:0 () in
  let trojan_dom = Kernel.create_domain k ~core:1 ~slice:1_000_000 ~pad_cycles:0 () in
  Kernel.map_region k spy_dom ~vbase:spy_buf ~pages:32;
  Kernel.map_region k trojan_dom ~vbase:trojan_buf ~pages:32;
  let hammer =
    Array.of_list
      (List.concat
         [
           List.map (fun a -> Program.Load a) (cold_addrs ~buf:trojan_buf ~n:32);
           List.map
             (fun a -> Program.Load (a + 2048))
             (cold_addrs ~buf:trojan_buf ~n:32);
           List.map
             (fun a -> Program.Load (a + 1024))
             (cold_addrs ~buf:trojan_buf ~n:32);
         ])
  in
  let quiet = [| Program.Compute (96 * 250) |] in
  ignore
    (Kernel.spawn k trojan_dom
       (Program.halted (if secret = 1 then hammer else quiet)));
  let probe =
    Array.of_list
      (List.map (fun a -> Program.Timed_load a) (cold_addrs ~buf:spy_buf ~n:32))
  in
  let spy = Kernel.spawn k spy_dom (Program.halted probe) in
  (k, spy)

(* Bucket the total latency: jitter contributes tens of cycles, queueing
   contributes hundreds. *)
let decode obs = Prime_probe.latency_sum obs / 256

let scenario ~bus () =
  {
    Attack.name =
      (match bus with
      | Interconnect.Shared -> "stateless interconnect (shared bus)"
      | Interconnect.Partitioned _ -> "interconnect with TDMA partitioning"
      | Interconnect.Throttled _ ->
        "interconnect with MBA-style approximate throttling");
    symbols = [ 0; 1 ];
    build = (fun ~cfg ~seed ~secret -> build ~bus ~cfg ~seed ~secret);
    decode;
    max_steps = 200_000;
  }
