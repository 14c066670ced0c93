(* One physical core's resource registry.  SMT siblings share the
   record, so a resource registered on either hardware thread is
   digested, listed and flushed on both. *)
type registry = {
  mutable groups : Resource.t list list;
      (* every core-private resource, packed; digest_core is a fold over
         this *)
  mutable flushables : Resource.t list;
      (* the present flushable resources, in registry order: what
         flush_core_local resets *)
  mutable flushable_names : string list;
      (* their names: what the kernel's per-switch coverage check reads *)
}

let set_groups reg groups =
  let flushables =
    List.concat_map
      (List.filter (fun r -> Resource.present r && Resource.flushable r))
      groups
  in
  reg.groups <- groups;
  reg.flushables <- flushables;
  reg.flushable_names <- List.map Resource.name flushables

type core = {
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t option;
  tlb : Tlb.t;
  bp : Bpred.t;
  pf : Prefetch.t;
  btb : Btb.t option;
  clk : Clock.t;
  reg : registry;
}

type fault =
  | Skip_flush of string
      (* the named resource is neither flushed nor reported — the kernel's
         coverage audit can see the gap *)
  | Silent_skip_flush of string
      (* the named resource is not flushed but an empty report is filed
         anyway — only behavioural oracles can see the gap *)

type config = {
  n_cores : int;
  l1_geom : Cache.geometry;
  l2_geom : Cache.geometry option;
  llc_geom : Cache.geometry;
  tlb_capacity : int;
  n_frames : int;
  page_bits : int;
  lat : Latency.t;
  bus_mode : Interconnect.mode;
  bus_service : int;
  prefetch_enabled : bool;
  smt : bool;
      (* hardware multithreading: odd-numbered cores share the private
         state of the preceding even-numbered core *)
  replacement : Cache.replacement;
  btb_entries : int option;
      (* branch target buffer size; [None] (the default) omits the BTB
         entirely, leaving digests identical to pre-BTB machines *)
  fault : fault option;
      (* deliberate defence bypass for mutant-kill validation of the fuzz
         oracles; [None] on every real configuration *)
}

type t = {
  cfg : config;
  cores : core array;
  shared_llc : Cache.t;
  shared_bus : Interconnect.t;
  phys : Mem.t;
  mutable shared_reg : Resource.t list list;
      (* shared (cross-core) resources; digest_shared folds over this *)
}

let default_config =
  {
    n_cores = 1;
    l1_geom = Cache.geometry ~sets:64 ~ways:4 ~line_bits:6 ();
    l2_geom = None;
    llc_geom = Cache.geometry ~sets:1024 ~ways:8 ~line_bits:6 ();
    tlb_capacity = 32;
    n_frames = 1024;
    page_bits = 12;
    lat = Latency.default;
    bus_mode = Interconnect.Shared;
    bus_service = 8;
    prefetch_enabled = true;
    smt = false;
    replacement = Cache.Lru;
    btb_entries = None;
    fault = None;
  }

(* The core registry's group structure reproduces the pre-registry digest
   tree exactly ([Rng.combine] is not associative, so the shape matters):
   group 1 is the cache hierarchy — l1i, l1d and the (possibly absent) L2
   slot — and group 2 the translation/speculation structures.  The BTB,
   when configured, simply extends group 2; with the default
   [btb_entries = None] every digest is bit-identical to older machines. *)
let core_registry c =
  let l2_slot =
    match c.l2 with
    | Some l2 -> Resource.of_cache ~name:(Cache.name l2) l2
    | None -> Resource.absent ~name:"private L2" ~placeholder_digest:17L
  in
  [
    [
      Resource.of_cache ~name:(Cache.name c.l1i) c.l1i;
      Resource.of_cache ~name:(Cache.name c.l1d) c.l1d;
      l2_slot;
    ];
    [ Resource.of_tlb c.tlb; Resource.of_bpred c.bp; Resource.of_prefetch c.pf ]
    @ (match c.btb with Some b -> [ Resource.of_btb b ] | None -> []);
  ]

let shared_registry cfg llc bus =
  [
    [
      Resource.of_cache ~name:(Cache.name llc)
        ~classification:Resource.Partitionable
        ~colours:(Cache.n_colours cfg.llc_geom ~page_bits:cfg.page_bits)
        llc;
      Resource.of_interconnect bus;
    ];
  ]

let create cfg =
  if cfg.n_cores <= 0 then invalid_arg "Machine.create: n_cores";
  let mk_core i =
    let c =
      {
        l1i = Cache.create ~name:(Printf.sprintf "l1i%d" i)
            ~replacement:cfg.replacement cfg.l1_geom;
        l1d = Cache.create ~name:(Printf.sprintf "l1d%d" i)
            ~replacement:cfg.replacement cfg.l1_geom;
        l2 =
          Option.map
            (fun g ->
              Cache.create ~name:(Printf.sprintf "l2_%d" i)
                ~replacement:cfg.replacement g)
            cfg.l2_geom;
        tlb = Tlb.create ~capacity:cfg.tlb_capacity;
        bp = Bpred.create ();
        pf = Prefetch.create ();
        btb = Option.map (fun entries -> Btb.create ~entries ()) cfg.btb_entries;
        clk = Clock.create ();
        reg = { groups = []; flushables = []; flushable_names = [] };
      }
    in
    set_groups c.reg (core_registry c);
    c
  in
  (* With SMT, hardware thread 2k+1 shares every private structure of
     hardware thread 2k except the cycle counter — the model of two
     hyperthreads on one physical core.  The registry record is shared
     too: both hardware threads see (and flush) the same resources,
     including any registered later on either of them. *)
  let cores = Array.make cfg.n_cores (mk_core 0) in
  for i = 1 to cfg.n_cores - 1 do
    cores.(i) <-
      (if cfg.smt && i land 1 = 1 then
         { (cores.(i - 1)) with clk = Clock.create () }
       else mk_core i)
  done;
  let shared_llc =
    Cache.create ~name:"llc" ~replacement:cfg.replacement cfg.llc_geom
  in
  let shared_bus =
    Interconnect.create ~service:cfg.bus_service ~mode:cfg.bus_mode ()
  in
  {
    cfg;
    cores;
    shared_llc;
    shared_bus;
    phys = Mem.create ~page_bits:cfg.page_bits ~n_frames:cfg.n_frames ();
    shared_reg = shared_registry cfg shared_llc shared_bus;
  }

(* A flushed structure behaves as at power-on (replacement state
   included), so a reset machine is a fresh one: clocks and memory
   restart, and the registries drop every resource registered after
   [create].  Reset siblings of an SMT pair flush their shared
   structures twice; the second flush is a no-op. *)
let reset t =
  Array.iter
    (fun c ->
      let (_ : int) = Cache.flush c.l1i in
      let (_ : int) = Cache.flush c.l1d in
      Option.iter (fun l2 -> ignore (Cache.flush l2 : int)) c.l2;
      let (_ : int) = Tlb.flush_all c.tlb in
      Bpred.flush c.bp;
      Prefetch.flush c.pf;
      Option.iter Btb.flush c.btb;
      Clock.reset c.clk;
      set_groups c.reg (core_registry c))
    t.cores;
  let (_ : int) = Cache.flush t.shared_llc in
  Interconnect.reset t.shared_bus;
  Mem.reset t.phys;
  t.shared_reg <- shared_registry t.cfg t.shared_llc t.shared_bus

let config t = t.cfg
let n_cores t = Array.length t.cores

let core t i =
  if i < 0 || i >= Array.length t.cores then
    invalid_arg "Machine: core index out of range";
  t.cores.(i)

let clock t ~core:i = (core t i).clk
let now t ~core:i = Clock.now (core t i).clk
let llc t = t.shared_llc
let l1i t ~core:i = (core t i).l1i
let l1d t ~core:i = (core t i).l1d
let l2 t ~core:i = (core t i).l2
let tlb t ~core:i = (core t i).tlb
let bpred t ~core:i = (core t i).bp
let prefetch t ~core:i = (core t i).pf
let btb t ~core:i = (core t i).btb
let bus t = t.shared_bus
let mem t = t.phys
let lat t = t.cfg.lat
let page_bits t = t.cfg.page_bits
let n_colours t = Cache.n_colours t.cfg.llc_geom ~page_bits:t.cfg.page_bits

(* ------------------------------------------------------------------ *)
(* Resource registry                                                   *)

let core_resources t ~core:i =
  List.concat_map (List.filter Resource.present) (core t i).reg.groups

let flushable_names t ~core:i = (core t i).reg.flushable_names

let shared_resources t =
  List.concat_map (List.filter Resource.present) t.shared_reg

let register_core_resource t ~core:i r =
  let reg = (core t i).reg in
  set_groups reg (reg.groups @ [ [ r ] ])

let register_shared_resource t r = t.shared_reg <- t.shared_reg @ [ [ r ] ]

(* Access the LLC (and DRAM below it) for a physical line.  Used both as
   the second level of a core access and for L1 victim write-backs. *)
let llc_access t ~domain ~owner ~write ~now paddr =
  let l = t.cfg.lat in
  let set = Cache.set_of_paddr t.shared_llc paddr in
  match Cache.access t.shared_llc ~owner ~write paddr with
  | Cache.Hit -> l.Latency.llc_hit + Latency.jitter l (Cache.digest_set t.shared_llc set)
  | Cache.Miss _ ->
    let bus_cycles = Interconnect.request t.shared_bus ~domain ~now in
    l.Latency.llc_hit
    + l.Latency.mem_lat + bus_cycles
    + Latency.jitter l (Cache.digest_set t.shared_llc set)

(* The private L2 (when configured) sits between the L1s and the LLC. *)
let l2_access t ~core:ci ~domain ~owner ~write ~now paddr =
  let c = core t ci in
  match c.l2 with
  | None -> llc_access t ~domain ~owner ~write ~now paddr
  | Some l2 -> (
    let l = t.cfg.lat in
    let set = Cache.set_of_paddr l2 paddr in
    match Cache.access l2 ~owner ~write paddr with
    | Cache.Hit ->
      l.Latency.l2_hit + Latency.jitter l (Cache.digest_set l2 set)
    | Cache.Miss evicted ->
      (match evicted with
      | Some { Cache.tag; dirty = true; owner = victim_owner } ->
        let victim_paddr = Cache.paddr_of_line l2 ~set ~tag in
        let (_ : int) =
          llc_access t ~domain ~owner:victim_owner ~write:true ~now
            victim_paddr
        in
        ()
      | Some _ | None -> ());
      l.Latency.l2_hit
      + llc_access t ~domain ~owner ~write ~now paddr
      + Latency.jitter l (Cache.digest_set l2 set))

(* One level-1 access (instruction or data side), with L2/LLC/DRAM
   backing, victim write-back and optional prefetching. *)
let l1_access t ~core:ci ~which ~domain ~owner ~write ~pc paddr =
  let c = core t ci in
  let l1 = match which with `I -> c.l1i | `D -> c.l1d in
  let l = t.cfg.lat in
  let set = Cache.set_of_paddr l1 paddr in
  let cost =
    match Cache.access l1 ~owner ~write paddr with
    | Cache.Hit -> l.Latency.l1_hit + Latency.jitter l (Cache.digest_set l1 set)
    | Cache.Miss evicted ->
      (* Write back a dirty victim into the next level (state change only;
         the write buffer hides its latency). *)
      (match evicted with
      | Some { Cache.tag; dirty = true; owner = victim_owner } ->
        let victim_paddr = Cache.paddr_of_line l1 ~set ~tag in
        let (_ : int) =
          l2_access t ~core:ci ~domain ~owner:victim_owner ~write:true
            ~now:(Clock.now c.clk) victim_paddr
        in
        ()
      | Some _ | None -> ());
      l.Latency.l1_hit
      + l2_access t ~core:ci ~domain ~owner ~write ~now:(Clock.now c.clk)
          paddr
  in
  (* Stride prefetcher: observes data accesses, pulls predicted lines into
     the hierarchy off the critical path (state change, no direct cost).
     Prefetches never cross a page boundary. *)
  (if t.cfg.prefetch_enabled && which = `D then
     let page_mask = lnot ((1 lsl t.cfg.page_bits) - 1) in
     let predictions = Prefetch.observe c.pf ~pc ~addr:paddr in
     List.iter
       (fun a ->
         if a land page_mask = paddr land page_mask then begin
           (match Cache.access c.l1d ~owner ~write:false a with
           | Cache.Hit -> ()
           | Cache.Miss _ ->
             let (_ : Cache.access_result) =
               Cache.access t.shared_llc ~owner ~write:false a
             in
             ())
         end)
       predictions);
  cost

(* Virtual-address translation through the TLB. *)
let translate_cost t ~core:ci ~asid ~translate vaddr =
  let c = core t ci in
  let l = t.cfg.lat in
  let vpn = vaddr lsr t.cfg.page_bits in
  match Tlb.lookup c.tlb ~asid ~vpn with
  | Some pfn ->
    let cost = l.Latency.tlb_hit + Latency.jitter l (Tlb.digest c.tlb) in
    Ok (pfn, cost)
  | None -> (
    match translate vpn with
    | None -> Error `Fault
    | Some pfn ->
      Tlb.insert c.tlb ~asid ~vpn ~pfn;
      let cost = l.Latency.walk + Latency.jitter l (Tlb.digest c.tlb) in
      Ok (pfn, cost))

let virtual_access t ~core:ci ~which ~asid ~domain ~translate ~write ~pc vaddr =
  let c = core t ci in
  match translate_cost t ~core:ci ~asid ~translate vaddr with
  | Error `Fault -> Error `Fault
  | Ok (pfn, tcost) ->
    let offset = vaddr land ((1 lsl t.cfg.page_bits) - 1) in
    let paddr = (pfn lsl t.cfg.page_bits) lor offset in
    let acost =
      l1_access t ~core:ci ~which ~domain ~owner:domain ~write ~pc paddr
    in
    let total = tcost + acost in
    Clock.advance c.clk total;
    Ok total

let load t ~core ~asid ~domain ~translate ~pc vaddr =
  virtual_access t ~core ~which:`D ~asid ~domain ~translate ~write:false ~pc
    vaddr

let store t ~core ~asid ~domain ~translate ~pc vaddr =
  virtual_access t ~core ~which:`D ~asid ~domain ~translate ~write:true ~pc
    vaddr

let fetch t ~core ~asid ~domain ~translate vaddr =
  virtual_access t ~core ~which:`I ~asid ~domain ~translate ~write:false
    ~pc:vaddr vaddr

let branch t ~core:ci ~pc ~taken =
  let c = core t ci in
  let l = t.cfg.lat in
  let correct = Bpred.update c.bp ~pc ~taken in
  (* When a BTB is configured, a taken branch whose target is not cached
     there pays a second misprediction penalty (the front end cannot
     redirect until the target resolves), and the target is installed.
     Not-taken branches never touch the BTB. *)
  let btb_miss =
    match c.btb with
    | None -> false
    | Some b ->
      taken
      &&
      let hit = Btb.predict b ~pc <> None in
      Btb.update b ~pc ~target:(pc + 4);
      not hit
  in
  let cost =
    (if correct then l.Latency.branch_hit else l.Latency.branch_miss)
    + if btb_miss then l.Latency.branch_miss else 0
  in
  Clock.advance c.clk cost;
  cost

let compute t ~core:ci ~cycles =
  if cycles < 0 then invalid_arg "Machine.compute: negative cycles";
  let c = core t ci in
  Clock.advance c.clk cycles;
  cycles

let touch_paddr t ~core:ci ~owner ~write paddr =
  let c = core t ci in
  let cost =
    l1_access t ~core:ci ~which:`D ~domain:owner ~owner ~write ~pc:paddr paddr
  in
  Clock.advance c.clk cost;
  cost

let fetch_paddr t ~core:ci ~owner paddr =
  let c = core t ci in
  let cost =
    l1_access t ~core:ci ~which:`I ~domain:owner ~owner ~write:false ~pc:paddr
      paddr
  in
  Clock.advance c.clk cost;
  cost

let flush_line t ~core:ci ~asid ~translate vaddr =
  let c = core t ci in
  match translate_cost t ~core:ci ~asid ~translate vaddr with
  | Error `Fault -> Error `Fault
  | Ok (pfn, tcost) ->
    let offset = vaddr land ((1 lsl t.cfg.page_bits) - 1) in
    let paddr = (pfn lsl t.cfg.page_bits) lor offset in
    let wrote_back = ref 0 in
    let drop cache =
      if Cache.invalidate_line cache paddr then incr wrote_back
    in
    Array.iter
      (fun core ->
        drop core.l1i;
        drop core.l1d;
        match core.l2 with Some l2 -> drop l2 | None -> ())
      t.cores;
    drop t.shared_llc;
    let cost =
      tcost + t.cfg.lat.Latency.clflush_base
      + (!wrote_back * t.cfg.lat.Latency.dirty_wb)
    in
    Clock.advance c.clk cost;
    Ok cost

let digest_core t ~core:ci = Resource.digest_registry (core t ci).reg.groups

let digest_shared t = Resource.digest_registry t.shared_reg

(* From-scratch mirrors (no digest memo): ground truth for differential
   tests and the incremental-vs-fold benchmarks. *)
let digest_core_fold t ~core:ci =
  Resource.digest_registry_fold (core t ci).reg.groups

let digest_shared_fold t = Resource.digest_registry_fold t.shared_reg

(* Core-local flush: reset every *flushable* registered resource, in
   registry order, and bill the history-dependent cost — base, plus one
   write-back per dirty line any resource reported, plus any extra cycles
   a resource's own reset contributes, plus jitter over the pre-flush
   state.  Returns the per-resource reports so the kernel can audit that
   padding covered everything registered as flushable. *)
let flush_core_local_report t ~core:ci =
  let c = core t ci in
  let l = t.cfg.lat in
  let pre_digest = Resource.digest_registry c.reg.groups in
  let reports =
    List.filter_map
      (fun r ->
        match t.cfg.fault with
        | Some (Skip_flush n) when Resource.name r = n -> None
        | Some (Silent_skip_flush n) when Resource.name r = n ->
          Some (Resource.name r, Resource.no_flush)
        | _ -> Some (Resource.name r, Resource.flush r))
      c.reg.flushables
  in
  let dirty, extra =
    List.fold_left
      (fun (d, e) (_, rep) ->
        ( d + rep.Resource.dirty_writebacks,
          e + rep.Resource.extra_cycles ))
      (0, 0) reports
  in
  let cost =
    l.Latency.flush_base + (dirty * l.Latency.dirty_wb) + extra
    + Latency.jitter l pre_digest
  in
  Clock.advance c.clk cost;
  (cost, reports)

let flush_core_local t ~core:ci = fst (flush_core_local_report t ~core:ci)

let wait_until t ~core:ci deadline =
  let c = core t ci in
  Clock.wait_until c.clk deadline

let pp ppf t =
  Format.fprintf ppf "machine: %d cores, %a, %a" (n_cores t) Cache.pp
    t.shared_llc Interconnect.pp t.shared_bus;
  (* Registry-derived resource listing: one entry per core-0 private
     resource plus the shared ones, so the printed machine always agrees
     with what digesting and flushing actually cover. *)
  Format.fprintf ppf "@ resources:";
  List.iter
    (fun r -> Format.fprintf ppf "@ %a" Resource.pp r)
    (core_resources t ~core:0 @ shared_resources t)
