open Tpro_hw
open Tpro_kernel

let slice = 60_000
let pad = 20_000
let target_colour = 3

let spy_buf = 0x2000_0000
let trojan_buf = 0x3000_0000
let line_size = 64
let lines_per_page = 64

let l1_machine = Attack.machine

(* Small LLC so a 4-page buffer can cover a whole colour group:
   256 sets x 4 ways x 64 B = 64 KiB, 4 page colours. *)
let llc_machine ~seed =
  {
    (Attack.machine ~seed) with
    Machine.l1_geom = Cache.geometry ~sets:16 ~ways:2 ~line_bits:6 ();
    llc_geom = Cache.geometry ~sets:256 ~ways:4 ~line_bits:6 ();
    n_frames = 512;
  }

(* The spy's program: prime, burn the rest of the slice (and the boundary)
   with fine-grained compute so the Trojan's slice passes, then probe in
   shuffled order. *)
let spy_program ~prime ~probe =
  Program.concat
    [ prime; Prime_probe.filler ~cycles:(slice + 10_000) ~chunk:20; probe;
      [| Program.Halt |] ]

let two_domains k =
  let spy_dom = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  let trojan_dom = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  (spy_dom, trojan_dom)

(* ------------------------- L1 variant ----------------------------- *)

let l1_build ~cfg ~seed ~secret =
  let k = Kernel.create ~machine_config:(l1_machine ~seed) cfg in
  let spy_dom, trojan_dom = two_domains k in
  (* 4 pages = 256 lines: exactly fills a 64-set x 4-way L1 *)
  Kernel.map_region k spy_dom ~vbase:spy_buf ~pages:4;
  Kernel.map_region k trojan_dom ~vbase:trojan_buf ~pages:4;
  let prime = Prime_probe.prime ~base:spy_buf ~lines:256 ~line_size in
  let probe = Prime_probe.probe_shuffled ~base:spy_buf ~lines:256 ~line_size () in
  let spy = Kernel.spawn k spy_dom (spy_program ~prime ~probe) in
  let encode =
    Prime_probe.touch_lines ~base:trojan_buf ~lines:(secret * 32) ~line_size
  in
  ignore (Kernel.spawn k trojan_dom (Program.halted encode));
  (k, spy)

let l1_scenario () =
  {
    Attack.name = "L1 prime-and-probe (time-shared)";
    symbols = List.init 8 (fun i -> i);
    build = l1_build;
    decode = (fun obs -> Prime_probe.slow_count obs ~threshold:20);
    max_steps = 200_000;
  }

(* ------------------------- LLC variant ---------------------------- *)

let llc_build ~cfg ~seed ~secret =
  let k = Kernel.create ~machine_config:(llc_machine ~seed) cfg in
  let spy_dom, trojan_dom = two_domains k in
  Kernel.map_region k spy_dom ~vbase:spy_buf ~pages:16;
  Kernel.map_region k trojan_dom ~vbase:trojan_buf ~pages:16;
  (* both parties calibrate towards the agreed colour; under colouring
     each is confined to its own colour and they stop colliding *)
  let spy_pages =
    Calibrate.pick_colour_pages k spy_dom ~vbase:spy_buf ~pages:16
      ~colour:target_colour ~want:4
  in
  let trojan_pages =
    Calibrate.pick_colour_pages k trojan_dom ~vbase:trojan_buf ~pages:16
      ~colour:target_colour ~want:4
  in
  let prime =
    Prime_probe.prime_pages ~page_vaddrs:spy_pages ~lines_per_page ~line_size
  in
  let probe =
    Prime_probe.probe_pages ~page_vaddrs:spy_pages ~lines_per_page ~line_size ()
  in
  let spy = Kernel.spawn k spy_dom (spy_program ~prime ~probe) in
  let rec take n = function
    | [] -> []
    | x :: xs -> if n = 0 then [] else x :: take (n - 1) xs
  in
  let encode =
    Prime_probe.prime_pages
      ~page_vaddrs:(take secret trojan_pages)
      ~lines_per_page ~line_size
  in
  ignore (Kernel.spawn k trojan_dom (Program.halted encode));
  (k, spy)

let llc_scenario () =
  {
    Attack.name = "LLC prime-and-probe (shared)";
    symbols = [ 0; 1; 2; 3; 4 ];
    build = llc_build;
    decode = (fun obs -> Prime_probe.slow_count obs ~threshold:60);
    max_steps = 200_000;
  }
