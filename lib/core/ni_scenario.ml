open Tpro_hw
open Tpro_kernel
open Tpro_channel

let slice = 30_000
let pad = 25_000

let hi_buf = 0x4000_0000
let lo_buf = 0x2000_0000

let default_secrets = [ 0; 1; 2; 3 ]
let default_seeds = [ 0; 1; 2 ]

(* A small 4-colour LLC so that Hi's working set can actually evict Lo's
   lines when colouring is off — with a large LLC the sampled programs
   would be too small to collide and the colouring obligation would be
   vacuous. *)
let machine_config_with ~with_btb ~seed =
  {
    Machine.default_config with
    Machine.llc_geom = Cache.geometry ~sets:256 ~ways:4 ~line_bits:6 ();
    n_frames = 512;
    btb_entries =
      (if with_btb then Some 64 else Machine.default_config.Machine.btb_entries);
    lat = Latency.with_seed Latency.default seed;
  }

let machine_config ~seed = machine_config_with ~with_btb:false ~seed

(* Lo's observer: one phase per slice-ish — clock read, timed probes over
   its own buffer, a couple of traps, branches, then fine-grained filler
   to carry it across the slice boundary. *)
let observer_phase i =
  Program.concat
    [
      [| Program.Read_clock |];
      Prime_probe.probe ~base:(lo_buf + (i * 256)) ~lines:24 ~line_size:64;
      [| Program.Syscall Program.Sys_null; Program.Read_clock |];
      Array.init 8 (fun b -> Program.Branch { tag = b; taken = b land 1 = 0 });
      [| Program.Syscall Program.Sys_info; Program.Read_clock |];
      Prime_probe.filler ~cycles:slice ~chunk:25;
    ]

let observer =
  Program.concat
    [ observer_phase 0; observer_phase 1; observer_phase 2; [| Program.Halt |] ]

(* Hi's secret-dependent behaviour, built to exercise every mechanism:
   - a device interrupt armed at a secret-dependent time (IRQ partitioning);
   - a secret-dependent *choice* of kernel path, so the kernel-text
     footprint differs between secrets (kernel clone);
   - a secret-scaled sweep over many pages, several lines deep, so the LLC
     (and L1/TLB) footprint differs (colouring / flushing);
   - a random program derived from the secret (everything else). *)
let hi_program ~secret =
  let call =
    if secret land 1 = 0 then Program.Sys_null else Program.Sys_info
  in
  let pages = 8 + (8 * (secret mod 4)) in
  let sweep =
    Array.concat
      (List.init pages (fun p ->
           Array.init 16 (fun l ->
               Program.Load (hi_buf + (p * 4096) + (l * 64)))))
  in
  Program.concat
    [
      [|
        Program.Syscall
          (Program.Sys_arm_irq { irq = 1; delay = 40_000 + (secret * 4_000) });
      |];
      Array.make 6 (Program.Syscall call);
      sweep;
      Program.random ~syscalls:false
        (Rng.create (0x5EC + secret))
        ~len:100 ~data_base:hi_buf ~data_bytes:(4 * 4096);
    ]

(* --- The scenarios as system specs ---------------------------------- *)

let classic ~with_btb ~cfg ~seed ~secret =
  System.spec ~machine:(machine_config_with ~with_btb ~seed) ~cfg
    [
      System.domain ~slice ~pad_cycles:pad
        ~regions:[ (hi_buf, 32) ]
        ~programs:[ hi_program ~secret ]
        ~irqs:[ 1 ] ();
      System.domain ~slice ~pad_cycles:pad
        ~regions:[ (lo_buf, 4) ]
        ~programs:[ observer ] ~observer:true ();
    ]

let build_with ~with_btb ~cfg ~seed ~secret =
  System.build (classic ~with_btb ~cfg ~seed ~secret)

let build ~cfg ~seed ~secret = build_with ~with_btb:false ~cfg ~seed ~secret

(* Short observer for the exhaustive checker: one phase is enough, the
   point is to cover *every* Hi program, not every Lo behaviour. *)
let small_slice = 10_000
let small_pad = 12_000

let small_observer =
  Program.concat
    [
      [| Program.Read_clock |];
      Prime_probe.probe ~base:lo_buf ~lines:12 ~line_size:64;
      [| Program.Syscall Program.Sys_null; Program.Read_clock |];
      Prime_probe.filler ~cycles:small_slice ~chunk:25;
      [| Program.Read_clock; Program.Halt |];
    ]

let compact ~with_btb ~cfg ~seed ~hi_prog =
  System.spec ~machine:(machine_config_with ~with_btb ~seed) ~cfg
    [
      System.domain ~slice:small_slice ~pad_cycles:small_pad
        ~regions:[ (hi_buf, 2) ]
        ~programs:[ hi_prog ] ();
      System.domain ~slice:small_slice ~pad_cycles:small_pad
        ~regions:[ (lo_buf, 2) ]
        ~programs:[ small_observer ] ~observer:true ();
    ]

let build_with_program_on ~with_btb ~cfg ~seed ~hi_prog =
  System.build (compact ~with_btb ~cfg ~seed ~hi_prog)
