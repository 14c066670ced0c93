open Tpro_hw
open Tpro_kernel

let slice = 60_000
let pad = 20_000

let spy_buf = 0x2000_0000
let trojan_buf = 0x3000_0000
let page = 4096

let machine ~seed = { (Attack.machine ~seed) with Machine.tlb_capacity = 32 }

(* Spy: warm its own 16 translations, bridge the slice boundary, then
   touch one line per page again, timed — a page walk (TLB miss) is an
   order of magnitude slower than a TLB hit. *)
let build ~cfg ~seed ~secret =
  let k = Kernel.create ~machine_config:(machine ~seed) cfg in
  let spy_dom = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  let trojan_dom = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  Kernel.map_region k spy_dom ~vbase:spy_buf ~pages:16;
  Kernel.map_region k trojan_dom ~vbase:trojan_buf ~pages:40;
  let warm =
    Array.init 16 (fun i -> Program.Load (spy_buf + (i * page)))
  in
  (* probe in reverse warm order: a walk's TLB refill then evicts an
     already-probed (or equally stale) entry instead of cascading through
     the not-yet-probed ones, keeping the walk count proportional to the
     Trojan's evictions *)
  let probe =
    Array.init 16 (fun i -> Program.Timed_load (spy_buf + ((15 - i) * page)))
  in
  let spy =
    Kernel.spawn k spy_dom
      (Program.concat
         [ warm; Prime_probe.filler ~cycles:(slice + 10_000) ~chunk:20; probe;
           [| Program.Halt |] ])
  in
  let encode =
    Array.init (secret * 8) (fun i -> Program.Load (trojan_buf + (i * page)))
  in
  ignore (Kernel.spawn k trojan_dom (Program.halted encode));
  (k, spy)

let scenario () =
  {
    Attack.name = "TLB contention (ASID-tagged)";
    symbols = [ 0; 1; 2; 3; 4 ];
    build;
    (* a page walk adds the walk latency (40) on top of whatever the cache
       part costs, so walks stand out against the run's own baseline *)
    decode = (fun obs -> Prime_probe.slow_count_relative obs ~margin:20);
    max_steps = 200_000;
  }
