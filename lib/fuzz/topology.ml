open Tpro_hw
open Tpro_kernel
open Tpro_secmodel
open Tpro_channel
module Presets = Time_protection.Presets
module Wcet = Time_protection.Wcet
module System = Time_protection.System

type dom_spec = {
  d_core : int;
  d_colours : int;
  d_pages : int;
  d_workload : int;
  d_wseed : int;
  d_slice : int;
}

type t = {
  seed : int;
  idx : int;
  mutant : Scenario.mutant;
  n_cores : int;
  smt : bool;
  btb : bool;
  lat_seed : int;
  secret_a : int;  (** every domain's baseline secret *)
  secret_b : int;  (** the varied domain's alternative secret *)
  bus_slot : int;  (** TDMA slot width; 0 = shared bus (single core) *)
  pad_extra : int;
  domains : dom_spec array;
  scheds : (int * int array) list;
      (** per populated core, the installed schedule (a permutation of
          that core's domains) *)
  ipc : (int * int) list;
      (** IPC edges [src < dst]; the endpoint index is the edge's
          position in this list *)
  deep_hi : int;  (** focus pair: varied domain of the unwinding sweep *)
  deep_lo : int;  (** focus pair: observer domain of the unwinding sweep *)
  cap_dom : int;  (** varied domain of the capacity probe *)
  cap_obs : int;  (** observer domain of the capacity probe *)
  skip_idx : int; (** selects the skip-flush mutant's core and resource *)
  mis_src : int;  (** miscolour mutant: domain whose page is remapped *)
  mis_dst : int;  (** miscolour mutant: domain whose colour it steals *)
}

let n_domains t = Array.length t.domains

(* ------------------------------------------------------------------ *)
(* Deterministic generation.  Side-effecting draws go through [gen_list]
   so the Rng stream order is pinned by construction ([Array.init] and
   [List.init] leave application order unspecified).                    *)

let gen_list n f =
  List.rev (List.fold_left (fun acc i -> f i :: acc) [] (List.init n Fun.id))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let generate ~seed ?(mutant = Scenario.No_mutant) ?(max_domains = 8)
    ?(max_cores = 4) idx =
  let max_domains = max 2 (min 8 max_domains) in
  let max_cores = max 1 (min 4 max_cores) in
  let rng =
    Rng.create
      (Rng.hash_int (Int64.of_int seed) (Int64.of_int (idx lxor 0x7070)))
  in
  let n = 2 + Rng.int rng (max_domains - 1) in
  let core_choices = List.filter (fun c -> c <= max_cores) [ 1; 2; 4 ] in
  let n_cores = List.nth core_choices (Rng.int rng (List.length core_choices)) in
  let smt = n_cores >= 2 && Rng.int rng 4 = 0 in
  (* With SMT, odd cores share their even sibling's private structures:
     co-scheduling distrusting domains on siblings is fundamentally
     insecure (Ge et al.), so topologies only populate even cores. *)
  let usable =
    if smt then List.init (n_cores / 2) (fun i -> 2 * i)
    else List.init n_cores Fun.id
  in
  let nu = List.length usable in
  let base_slice = 3_000 + (500 * Rng.int rng 7) in
  (* Colour budget: 16 LLC colours, colour 0 reserved for the kernel. *)
  let budget = ref 15 in
  let domains =
    Array.of_list
      (gen_list n (fun d ->
           let c =
             if !budget - (n - d) >= 1 && Rng.int rng 3 = 0 then 2 else 1
           in
           budget := !budget - c;
           {
             d_core = List.nth usable (Rng.int rng nu);
             d_colours = c;
             d_pages = 2 + Rng.int rng 5;
             d_workload = Rng.int rng 4;
             d_wseed = Rng.int rng 1_000_000;
             d_slice = base_slice + (500 * Rng.int rng 3);
           }))
  in
  let populated =
    List.filter
      (fun core -> Array.exists (fun ds -> ds.d_core = core) domains)
      (List.init n_cores Fun.id)
  in
  let bus_slot =
    if List.length populated > 1 then 64 * (1 + Rng.int rng 2) else 0
  in
  let scheds =
    List.rev
      (List.fold_left
         (fun acc core ->
           let mine = ref [] in
           Array.iteri
             (fun d ds -> if ds.d_core = core then mine := d :: !mine)
             domains;
           let a = Array.of_list (List.rev !mine) in
           shuffle rng a;
           (core, a) :: acc)
         [] populated)
  in
  let ipc =
    List.filter_map Fun.id
      (gen_list (n - 1) (fun i ->
           let dst = i + 1 in
           if Rng.int rng 2 = 0 then Some (Rng.int rng dst, dst) else None))
  in
  let other d = (d + 1 + Rng.int rng (n - 1)) mod n in
  let deep_hi = Rng.int rng n in
  let deep_lo = other deep_hi in
  let cap_dom = Rng.int rng n in
  let cap_obs = other cap_dom in
  let skip_idx = Rng.int rng (3 * n) in
  let mis_src = deep_hi in
  let mis_dst = other mis_src in
  let secret_a = Rng.int rng 8 in
  {
    seed;
    idx;
    mutant;
    n_cores;
    smt;
    btb = Rng.bool rng;
    lat_seed = Rng.int rng 1024;
    secret_a;
    secret_b = (secret_a + 1 + Rng.int rng 7) mod 8;
    bus_slot;
    pad_extra = 500 * Rng.int rng 3;
    domains;
    scheds;
    ipc;
    deep_hi;
    deep_lo;
    cap_dom;
    cap_obs;
    skip_idx;
    mis_src;
    mis_dst;
  }

(* ------------------------------------------------------------------ *)
(* Derived configurations                                               *)

(* The skip-flush mutant's victim: a flushable resource on one of the
   populated cores (the branch predictor's registered name carries no
   core suffix, so skipping it skips every core's). *)
let skip_target t =
  let ds = t.domains.(t.skip_idx mod n_domains t) in
  match t.skip_idx mod 3 with
  | 0 -> "l1d" ^ string_of_int ds.d_core
  | 1 -> "l1i" ^ string_of_int ds.d_core
  | _ -> "branch predictor"

let machine_config t =
  let base = Machine.default_config in
  {
    base with
    Machine.n_cores = t.n_cores;
    smt = t.smt;
    lat = Latency.with_seed base.Machine.lat t.lat_seed;
    btb_entries = (if t.btb then Some 64 else base.Machine.btb_entries);
    (* With more than one populated core, domains run concurrently and a
       shared bus would leak through contention — out of scope for the
       OS-level defences (the paper's explicit exclusion), so multi-core
       topologies get a TDMA-partitioned interconnect.  Slots are
       indexed by accessing domain; [n + 2] slots park the kernel's
       shared-owner traffic (owner -2, normalised to slot [n]) away
       from every domain's slot. *)
    bus_mode =
      (if t.bus_slot > 0 then
         Interconnect.Partitioned
           { slot = t.bus_slot; n_domains = n_domains t + 2 }
       else base.Machine.bus_mode);
    fault =
      (match t.mutant with
      | Scenario.Skip_flush -> Some (Machine.Silent_skip_flush (skip_target t))
      | Scenario.No_mutant | Scenario.Drop_padding | Scenario.Miscolour ->
        None);
  }

let kernel_config t =
  match t.mutant with
  | Scenario.Drop_padding -> { Presets.full with Kernel.pad_switch = false }
  | Scenario.No_mutant | Scenario.Skip_flush | Scenario.Miscolour ->
    Presets.full

let buf d = 0x2000_0000 + (d * 0x0100_0000)
let max_steps t = 200_000 + (60_000 * n_domains t)

(* ------------------------------------------------------------------ *)
(* Generated programs                                                   *)

(* The IPC prefix is secret-independent and runs before any
   secret-dependent instruction: delivery times may only depend on
   policy, never on a secret.  Edges form a DAG (src < dst) and every
   domain receives before it sends, so the prefix is deadlock-free by
   induction on the domain index. *)
let ipc_prefix t d =
  let recvs = ref [] and sends = ref [] in
  List.iteri
    (fun ep (src, dst) ->
      if dst = d then
        recvs := Program.Syscall (Program.Sys_recv { ep }) :: !recvs;
      if src = d then
        sends :=
          Program.Syscall
            (Program.Sys_send
               { ep; msg = (t.domains.(d).d_wseed + ep) land 0xFFFF })
          :: !sends)
    t.ipc;
  Array.of_list (List.rev !recvs @ List.rev !sends)

(* The secret-dependent tail, exercising every mechanism: an interrupt
   armed at a secret-dependent time, a secret-dependent kernel-path
   choice, a secret-scaled sweep over the domain's pages (page 0 first —
   the page the miscolour mutant remaps), and a random program derived
   from the secret.  In the baseline system every domain evaluates this
   at [secret_a], so the baseline run is one global system shared by
   every (varied, observer) pair. *)
let secret_tail t d ~secret =
  let ds = t.domains.(d) in
  let call =
    if secret land 1 = 0 then Program.Sys_null else Program.Sys_info
  in
  let pages = 1 + ((ds.d_wseed + secret) mod ds.d_pages) in
  (* Page 0 is swept at line granularity with a secret-dependent extent:
     a page maps to one LLC colour's worth of consecutive sets, so the
     *set* of cache sets dirtied through page 0's frame varies with the
     secret.  Against the miscolour mutant (which remaps page 0 into
     another domain's colour) this turns the planted breach into a
     state-level [partition:llc] divergence in the thief's slice, not
     merely a timing shift. *)
  let lines0 = 2 + ((ds.d_wseed + (5 * secret)) mod 14) in
  let sweep =
    Array.append
      (Array.init lines0 (fun l -> Program.Load (buf d + (l * 64))))
      (Array.concat
         (List.init (pages - 1) (fun p ->
              Array.init 8 (fun l ->
                  Program.Load (buf d + ((p + 1) * 4096) + (l * 64))))))
  in
  Program.concat
    [
      [|
        Program.Syscall
          (Program.Sys_arm_irq
             { irq = d + 1; delay = ds.d_slice + 500 + (secret * 211) });
      |];
      Array.make (1 + (secret mod 3)) (Program.Syscall call);
      sweep;
      Program.random ~syscalls:false
        (Rng.create (ds.d_wseed lxor (secret * 0x9E3779B9)))
        ~len:(30 + (ds.d_wseed mod 40))
        ~data_base:(buf d)
        ~data_bytes:(min ds.d_pages 4 * 4096);
    ]

(* Per-domain workload mix, derived from the domain's own seed. *)
let body t d =
  let ds = t.domains.(d) in
  match ds.d_workload mod 4 with
  | 0 ->
    (* prober: clock reads around timed probes of its own buffer *)
    Program.concat
      [
        [| Program.Read_clock |];
        Prime_probe.probe ~base:(buf d)
          ~lines:(8 + (ds.d_wseed mod 9))
          ~line_size:64;
        [| Program.Syscall Program.Sys_null; Program.Read_clock |];
        Array.init 4 (fun b ->
            Program.Branch { tag = b; taken = (b + ds.d_wseed) land 1 = 0 });
        Prime_probe.filler ~cycles:ds.d_slice ~chunk:25;
        [| Program.Read_clock |];
      ]
  | 1 ->
    (* trapper: kernel-path heavy *)
    Program.concat
      [
        [| Program.Read_clock |];
        Array.init
          (3 + (ds.d_wseed mod 4))
          (fun i ->
            Program.Syscall
              (if (i + ds.d_wseed) land 1 = 0 then Program.Sys_null
               else Program.Sys_info));
        Array.init 6 (fun b ->
            Program.Branch { tag = b; taken = (b + ds.d_wseed) land 1 = 1 });
        Prime_probe.filler ~cycles:ds.d_slice ~chunk:30;
        [| Program.Read_clock |];
      ]
  | 2 ->
    (* sweeper: walks all its pages, then a random tail *)
    Program.concat
      [
        Array.concat
          (List.init ds.d_pages (fun p ->
               Array.init 8 (fun l ->
                   Program.Load (buf d + (p * 4096) + (l * 64)))));
        Program.random ~syscalls:false
          (Rng.create (ds.d_wseed lxor 0x5CA1AB1E))
          ~len:(20 + (ds.d_wseed mod 30))
          ~data_base:(buf d)
          ~data_bytes:(ds.d_pages * 4096);
      ]
  | _ ->
    (* mixed: a bit of everything *)
    Program.concat
      [
        [| Program.Read_clock |];
        Prime_probe.probe ~base:(buf d) ~lines:8 ~line_size:64;
        [| Program.Syscall Program.Sys_info |];
        Program.random ~syscalls:false
          (Rng.create (ds.d_wseed lxor 0x0DDBA11))
          ~len:(25 + (ds.d_wseed mod 25))
          ~data_base:(buf d)
          ~data_bytes:(min ds.d_pages 2 * 4096);
        Prime_probe.filler ~cycles:(ds.d_slice / 2) ~chunk:25;
        [| Program.Read_clock |];
      ]

let program t d ~secret =
  Program.concat
    [ ipc_prefix t d; secret_tail t d ~secret; body t d; [| Program.Halt |] ]

(* ------------------------------------------------------------------ *)
(* System construction                                                  *)

let build ?machine t ~vary ~secret =
  let n = n_domains t in
  if vary < 0 || vary >= n then invalid_arg "Topology.build: vary";
  let mc = machine_config t in
  let pad = Wcet.recommended_pad ~max_compute:64 mc + t.pad_extra in
  let specs =
    List.map
      (fun d ->
        let ds = t.domains.(d) in
        System.domain ~core:ds.d_core ~n_colours:ds.d_colours
          ~regions:[ (buf d, ds.d_pages) ]
          ~programs:
            [ program t d ~secret:(if d = vary then secret else t.secret_a) ]
          ~irqs:[ d + 1 ]
          ~observer:(d <> vary)
          ~slice:ds.d_slice ~pad_cycles:pad ())
      (List.init n Fun.id)
  in
  let tweak =
    match t.mutant with
    | Scenario.Miscolour ->
      Some
        (fun k ->
          Scenario.miscolour_remap k ~victim:t.mis_src ~thief:t.mis_dst
            ~vbase:(buf t.mis_src))
    | Scenario.No_mutant | Scenario.Skip_flush | Scenario.Drop_padding ->
      None
  in
  let run =
    System.build ?machine
      (System.spec
         ~n_endpoints:(max 4 (List.length t.ipc))
         ~n_irqs:(n + 1) ~schedules:t.scheds ?tweak ~machine:mc
         ~cfg:(kernel_config t) specs)
  in
  (* Trace every thread, not just the observers: the baseline run is
     shared across all (varied, observer) pairs, so any domain's cost
     trace may be compared later. *)
  List.iter
    (fun (dom : Domain.t) ->
      List.iter (fun th -> Thread.set_traced th true) (Domain.threads dom))
    (Kernel.domains run.Nonint.kernel);
  run

let pairs t =
  let n = n_domains t in
  List.concat_map
    (fun v ->
      List.filter_map
        (fun o -> if o <> v then Some (v, o) else None)
        (List.init n Fun.id))
    (List.init n Fun.id)

(* Rough weight for fuel accounting: executions scale with N, and each
   execution with the per-domain work. *)
let size t =
  Array.fold_left
    (fun acc ds -> acc + (ds.d_pages * 8) + (ds.d_wseed mod 40) + 60)
    (100 * n_domains t)
    t.domains

let pp ppf t =
  Format.fprintf ppf
    "topology %d/%d: %d domains on %d core%s%s%s, mutant %s, bus %s, \
     focus pair (%d,%d), %d ipc edge%s"
    t.seed t.idx (n_domains t) t.n_cores
    (if t.n_cores = 1 then "" else "s")
    (if t.smt then "+smt" else "")
    (if t.btb then "+btb" else "")
    (Scenario.mutant_to_string t.mutant)
    (if t.bus_slot > 0 then Printf.sprintf "tdma-%d" t.bus_slot else "shared")
    t.deep_hi t.deep_lo (List.length t.ipc)
    (if List.length t.ipc = 1 then "" else "s")
