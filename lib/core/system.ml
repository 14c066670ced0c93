open Tpro_hw
open Tpro_kernel
open Tpro_secmodel

type domain = {
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
  domains : domain list;
  tweak : (Kernel.t -> unit) option;
}

let domain ?core ?n_colours ?(regions = []) ?(programs = []) ?(irqs = [])
    ?(observer = false) ~slice ~pad_cycles () =
  { core; n_colours; slice; pad_cycles; regions; programs; irqs; observer }

let spec ?n_endpoints ?n_irqs ?(schedules = []) ?tweak ~machine ~cfg domains =
  { machine; cfg; n_endpoints; n_irqs; schedules; domains; tweak }

(* Build order is load-bearing for replay stability: domains are created
   first (colour and kernel-clone assignment follow creation order), then
   every region is mapped (frame allocation order), then IRQ owners and
   schedules are installed, then the [tweak] hook runs (while no thread
   exists yet), and only then are threads spawned domain-major (each
   spawn allocates its code frames, so with colouring off every region
   frame sits below every code frame). *)
let build ?machine s =
  let k =
    Kernel.create ~machine_config:s.machine ?machine
      ?n_endpoints:s.n_endpoints ?n_irqs:s.n_irqs s.cfg
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
      | Error e -> invalid_arg ("System.build: " ^ Sched.error_to_string e))
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
