open Tpro_hw
open Tpro_kernel
open Tpro_secmodel
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

(* --- Record-parameterised scenario construction -------------------- *)

type domain_spec = {
  core : int option;
  n_colours : int option;
  slice : int;
  pad_cycles : int;
  regions : (int * int) list;
  programs : Program.t list;
  irqs : int list;
  observer : bool;
}

type spec = {
  machine : Machine.config;
  cfg : Kernel.config;
  n_endpoints : int option;
  n_irqs : int option;
  schedules : (int * int array) list;
  domains : domain_spec list;
  tweak : (Kernel.t -> unit) option;
}

let domain_spec ?core ?n_colours ?(regions = []) ?(programs = []) ?(irqs = [])
    ?(observer = false) ~slice ~pad_cycles () =
  { core; n_colours; slice; pad_cycles; regions; programs; irqs; observer }

let spec ?n_endpoints ?n_irqs ?(schedules = []) ?tweak ~machine ~cfg domains =
  { machine; cfg; n_endpoints; n_irqs; schedules; domains; tweak }

(* Build order is load-bearing for replay stability: domains are created
   first (colour and kernel-clone assignment follow creation order), then
   every region is mapped (frame allocation order), then IRQ owners and
   schedules are installed, then the [tweak] hook runs (while no thread
   exists yet), and only then are threads spawned domain-major.  The
   legacy two-domain builders below are thin specs, and produce
   bit-identical kernels to their historical hand-rolled bodies. *)
let build_spec s =
  let k =
    Kernel.create ~machine_config:s.machine ?n_endpoints:s.n_endpoints
      ?n_irqs:s.n_irqs s.cfg
  in
  let doms =
    List.map
      (fun d ->
        Kernel.create_domain k ?core:d.core ?n_colours:d.n_colours
          ~slice:d.slice ~pad_cycles:d.pad_cycles ())
      s.domains
  in
  List.iter2
    (fun ds dom ->
      List.iter
        (fun (vbase, pages) -> Kernel.map_region k dom ~vbase ~pages)
        ds.regions)
    s.domains doms;
  List.iter2
    (fun ds dom -> List.iter (fun irq -> Kernel.set_irq_owner k ~irq ~dom) ds.irqs)
    s.domains doms;
  List.iter
    (fun (core, order) ->
      match Kernel.set_schedule k ~core order with
      | Ok () -> ()
      | Error e ->
        invalid_arg ("Ni_scenario.build_spec: " ^ Sched.error_to_string e))
    s.schedules;
  (match s.tweak with Some f -> f k | None -> ());
  let observers =
    List.concat
      (List.map2
         (fun ds dom ->
           let ths = List.map (fun p -> Kernel.spawn k dom p) ds.programs in
           if ds.observer then ths else [])
         s.domains doms)
  in
  { Nonint.kernel = k; observers }

let build_with ~with_btb ~cfg ~seed ~secret =
  build_spec
    (spec ~machine:(machine_config_with ~with_btb ~seed) ~cfg
       [
         domain_spec ~slice ~pad_cycles:pad
           ~regions:[ (hi_buf, 32) ]
           ~programs:[ hi_program ~secret ]
           ~irqs:[ 1 ] ();
         domain_spec ~slice ~pad_cycles:pad
           ~regions:[ (lo_buf, 4) ]
           ~programs:[ observer ] ~observer:true ();
       ])

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

let build_with_program_on ~with_btb ~cfg ~seed ~hi_prog =
  build_spec
    (spec ~machine:(machine_config_with ~with_btb ~seed) ~cfg
       [
         domain_spec ~slice:small_slice ~pad_cycles:small_pad
           ~regions:[ (hi_buf, 2) ]
           ~programs:[ hi_prog ] ();
         domain_spec ~slice:small_slice ~pad_cycles:small_pad
           ~regions:[ (lo_buf, 2) ]
           ~programs:[ small_observer ] ~observer:true ();
       ])

let build_with_program ~cfg ~seed ~hi_prog =
  build_with_program_on ~with_btb:false ~cfg ~seed ~hi_prog
