open Tpro_hw
open Tpro_kernel
open Tpro_channel

let default_seeds = List.init 8 (fun i -> i)

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

let capacity_row ?pool ~seeds scenario (name, cfg) =
  let o = Attack.measure ~seeds ?pool scenario ~cfg () in
  [
    name;
    Table.cell_float o.Attack.capacity_bits;
    string_of_int o.Attack.distinct_outputs;
    string_of_int (List.length o.Attack.samples);
  ]

let capacity_table ?pool ~seeds ~id ~title ~anchor ~note scenario configs =
  {
    Table.id;
    title;
    anchor;
    headers = [ "config"; "capacity(bits)"; "distinct-outputs"; "samples" ];
    rows = List.map (capacity_row ?pool ~seeds scenario) configs;
    note;
  }

(* ------------------------------------------------------------------ *)
(* E1: downgrader arrival time (Figure 1, Sect. 3.2)                   *)

let e1_downgrader ?(seeds = default_seeds) ?pool () =
  let scen = Downgrader.scenario () in
  let base =
    capacity_table ?pool ~seeds ~id:"E1"
      ~title:"downgrader arrival-time channel (encryption component)"
      ~anchor:"Figure 1, Sect. 3.2"
      ~note:
        "arrival time leaks the crypto duration unless delivery is \
         deterministic; WCET padding inside Hi also closes it (Sect. 4.3)"
      scen
      [
        ("none", Presets.none);
        ("full\\det-ipc", Presets.without_deterministic_delivery);
        ("full", Presets.full);
      ]
  in
  let padded =
    capacity_row ?pool ~seeds (Downgrader.padded_scenario ())
      ("none+WCET-padded-app", Presets.none)
  in
  { base with Table.rows = base.Table.rows @ [ padded ] }

(* ------------------------------------------------------------------ *)
(* E2 / E3: prime-and-probe                                            *)

let e2_l1_prime_probe ?(seeds = default_seeds) ?pool () =
  capacity_table ?pool ~seeds ~id:"E2"
    ~title:"L1 prime-and-probe covert channel (time-shared, core-private)"
    ~anchor:"Sect. 3.1"
    ~note:
      "core-private state is flushable: flushing on domain switch closes \
       the channel; colouring alone cannot reach the single-colour L1"
    (Cache_channel.l1_scenario ())
    [
      ("none", Presets.none);
      ("colour-only", Presets.colour_only);
      ("flush+pad", Presets.flush_pad);
      ("full", Presets.full);
    ]

let e3_llc_prime_probe ?(seeds = default_seeds) ?pool () =
  capacity_table ?pool ~seeds ~id:"E3"
    ~title:"LLC prime-and-probe covert channel (shared cache)"
    ~anchor:"Sect. 3.1, 4.1"
    ~note:
      "flushing core-local state does NOT close a shared-cache channel; \
       partitioning by page colouring does — exactly Sect. 4.1's claim"
    (Cache_channel.llc_scenario ())
    [
      ("none", Presets.none);
      ("flush+pad", Presets.flush_pad);
      ("full\\colour", Presets.without_colouring);
      ("colour-only", Presets.colour_only);
      ("full", Presets.full);
    ]

(* ------------------------------------------------------------------ *)
(* E4: switch latency vs. dirtiness (Sect. 4.2)                        *)

let e4_slice = 60_000
let e4_pad = 15_000

let switch_metrics ~pad_on ~lines ~seed =
  let cfg =
    {
      Presets.none with
      Kernel.flush_on_switch = true;
      pad_switch = pad_on;
    }
  in
  let machine_config =
    {
      Machine.default_config with
      Machine.lat = Latency.with_seed Latency.default seed;
    }
  in
  let k = Kernel.create ~machine_config cfg in
  let d0 = Kernel.create_domain k ~slice:e4_slice ~pad_cycles:e4_pad () in
  let d1 = Kernel.create_domain k ~slice:e4_slice ~pad_cycles:e4_pad () in
  Kernel.map_region k d0 ~vbase:0x2000_0000 ~pages:4;
  (* stores to dirty the cache, then fine-grained compute so the domain
     occupies its whole slice and the switch is timer-triggered *)
  ignore
    (Kernel.spawn k d0
       (Program.concat
          [
            Prime_probe.write_lines ~base:0x2000_0000 ~lines ~line_size:64;
            Prime_probe.filler ~cycles:(2 * e4_slice) ~chunk:25;
            [| Program.Halt |];
          ]));
  ignore (Kernel.spawn k d1 [| Program.Compute 50; Program.Halt |]);
  Kernel.run ~max_steps:40_000 k;
  let rec first = function
    | Event.Switch { from_dom = 0; slice_start; start; finish; flush_cycles; _ }
      :: _ ->
      Some (finish - start, finish - slice_start, flush_cycles)
    | _ :: rest -> first rest
    | [] -> None
  in
  match first (Kernel.events k) with
  | Some m -> m
  | None -> failwith "E4: no switch observed"

let e4_switch_latency ?(seeds = default_seeds) () =
  let dirty_counts = [ 0; 64; 128; 192; 256 ] in
  let stats f =
    let h = Hist.of_list f in
    (int_of_float (Hist.mean h), Hist.stddev h)
  in
  let rows =
    List.map
      (fun lines ->
        let unpadded =
          List.map
            (fun seed -> switch_metrics ~pad_on:false ~lines ~seed)
            seeds
        in
        let raw = List.map (fun (d, _, _) -> d) unpadded in
        let flushes = List.map (fun (_, _, f) -> f) unpadded in
        let slots =
          List.map (fun seed ->
              let _, s, _ = switch_metrics ~pad_on:true ~lines ~seed in
              s)
            seeds
        in
        let raw_mean, raw_sd = stats raw in
        let flush_mean, _ = stats flushes in
        let slot_distinct = List.sort_uniq compare slots in
        [
          string_of_int lines;
          string_of_int flush_mean;
          Printf.sprintf "%d +- %.0f" raw_mean raw_sd;
          (match slot_distinct with
          | [ s ] -> Printf.sprintf "%d (constant)" s
          | l -> Printf.sprintf "VARIES over %d values" (List.length l));
        ])
      dirty_counts
  in
  {
    Table.id = "E4";
    title = "domain-switch latency vs. outgoing domain's dirty lines";
    anchor = "Sect. 4.2";
    headers =
      [ "dirty-lines"; "flush-cost"; "raw switch (unpadded)"; "padded slot" ];
    rows;
    note =
      "the flush cost grows with dirtiness - itself a channel; padding to \
       slice_start + slice + pad makes the visible slot constant";
  }

(* ------------------------------------------------------------------ *)
(* E5 / E6                                                             *)

let e5_kernel_text ?(seeds = default_seeds) ?pool () =
  capacity_table ?pool ~seeds ~id:"E5"
    ~title:"shared kernel-text channel and the kernel clone"
    ~anchor:"Sect. 4.2"
    ~note:
      "read-only sharing of kernel code leaks which handlers ran; \
       flushing and user-memory colouring do not help - only a \
       domain-private (cloned, coloured) kernel image closes it"
    (Kernel_text.scenario ())
    [
      ("none", Presets.none);
      ("flush+pad", Presets.flush_pad);
      ("full\\clone", Presets.without_clone);
      ("full", Presets.full);
    ]

let e6_interrupts ?(seeds = default_seeds) ?pool () =
  capacity_table ?pool ~seeds ~id:"E6"
    ~title:"interrupt channel and IRQ partitioning"
    ~anchor:"Sect. 4.2"
    ~note:
      "a Trojan-armed device interrupt lands in the victim's slice and \
       perturbs its measured time; masking non-owned interrupts defers it \
       to the owner's own slice"
    (Irq_channel.scenario ())
    [
      ("none", Presets.none);
      ("full\\irq-part", Presets.without_irq_partitioning);
      ("full", Presets.full);
    ]

(* ------------------------------------------------------------------ *)
(* E7: the proof stack (Sect. 5.2)                                     *)

let e7_proofs ?(seeds = Ni_scenario.default_seeds)
    ?(secrets = Ni_scenario.default_secrets) () =
  let row_of (cfg_name, cfg) =
    let report = Verify.run ~seeds ~secrets ~cfg () in
    List.map
      (fun (c : Tpro_secmodel.Proofs.check) ->
        [
          cfg_name;
          c.Tpro_secmodel.Proofs.name;
          (if c.Tpro_secmodel.Proofs.holds then "holds" else "VIOLATED");
          (let d = Tpro_secmodel.Proofs.detail_text c.Tpro_secmodel.Proofs.detail in
           if String.length d > 60 then String.sub d 0 57 ^ "..." else d);
        ])
      report.Verify.checks
  in
  {
    Table.id = "E7";
    title = "proof obligations: unwinding checks and noninterference";
    anchor = "Sect. 5.2";
    headers = [ "config"; "obligation"; "verdict"; "evidence" ];
    rows =
      List.concat_map row_of
        [ ("none", Presets.none); ("full", Presets.full) ];
    note =
      "every obligation is checked over random Hi programs, multiple \
       secrets and multiple latency-function seeds; with full time \
       protection all hold, without it the checkers find counter-examples";
  }

(* ------------------------------------------------------------------ *)
(* E8: TLB (Sect. 5.3)                                                 *)

let e8_functional_rows () =
  let open Tpro_secmodel in
  let trials = 200 in
  let run_theorem ~invalidate =
    let violations = ref 0 in
    for trial = 1 to trials do
      let rng = Rng.create (trial * 7919) in
      let tlb = Tlb.create ~capacity:32 in
      let pt_a = Hashtbl.create 16 and pt_b = Hashtbl.create 16 in
      (* give B some established, consistent entries *)
      for vpn = 0 to 7 do
        Hashtbl.replace pt_b vpn (100 + vpn);
        Lemma.Tlb_asid.apply tlb ~asid:2 pt_b (Lemma.Tlb_asid.Touch vpn)
      done;
      let ops =
        List.init 64 (fun _ ->
            let vpn = Rng.int rng 16 in
            match Rng.int rng 4 with
            | 0 -> Lemma.Tlb_asid.Map { vpn; pfn = Rng.int rng 256 }
            | 1 -> Lemma.Tlb_asid.Unmap vpn
            | 2 -> Lemma.Tlb_asid.Touch vpn
            | _ -> Lemma.Tlb_asid.Flush_asid)
      in
      let preserved =
        List.for_all
          (fun op ->
            Lemma.Tlb_asid.apply ~invalidate_on_update:invalidate tlb ~asid:1
              pt_a op;
            Lemma.Tlb_asid.consistent tlb ~asid:2 pt_b)
          ops
      in
      if not preserved then incr violations
    done;
    !violations
  in
  let own_asid_breaks =
    (* a buggy OS that remaps without invalidating breaks consistency for
       its OWN asid... *)
    let broken = ref 0 in
    for trial = 1 to trials do
      let rng = Rng.create (trial * 104729) in
      let tlb = Tlb.create ~capacity:32 in
      let pt = Hashtbl.create 16 in
      let ok = ref true in
      for _ = 1 to 32 do
        let vpn = Rng.int rng 8 in
        (match Rng.int rng 2 with
        | 0 ->
          Lemma.Tlb_asid.apply ~invalidate_on_update:false tlb ~asid:1 pt
            (Lemma.Tlb_asid.Map { vpn; pfn = Rng.int rng 256 })
        | _ -> Lemma.Tlb_asid.apply tlb ~asid:1 pt (Lemma.Tlb_asid.Touch vpn));
        if not (Lemma.Tlb_asid.consistent tlb ~asid:1 pt) then ok := false
      done;
      if not !ok then incr broken
    done;
    !broken
  in
  [
    [ "ops under ASID A vs B's consistency (correct OS)";
      Printf.sprintf "%d/%d violations" (run_theorem ~invalidate:true) trials;
      "theorem holds" ];
    [ "ops under ASID A vs B's consistency (buggy OS, no invalidation)";
      Printf.sprintf "%d/%d violations" (run_theorem ~invalidate:false) trials;
      "still holds: A cannot break B" ];
    [ "buggy OS vs its OWN consistency";
      Printf.sprintf "%d/%d runs broken" own_asid_breaks trials;
      "own-ASID consistency needs the invalidation" ];
  ]

let e8_tlb ?(seeds = default_seeds) ?pool () =
  let timing =
    List.map
      (fun (name, cfg) ->
        let o = Attack.measure ~seeds ?pool (Tlb_channel.scenario ()) ~cfg () in
        [
          "TLB timing channel under " ^ name;
          Table.cell_float o.Attack.capacity_bits ^ " bits";
          (if o.Attack.capacity_bits > 0.01 then "open" else "closed");
        ])
      [
        ("none", Presets.none);
        ("full\\flush (ASID tagging only)", Presets.without_flush);
        ("full", Presets.full);
      ]
  in
  {
    Table.id = "E8";
    title = "TLB: functional partitioning theorem vs. the timing channel";
    anchor = "Sect. 5.3";
    headers = [ "property / channel"; "result"; "interpretation" ];
    rows = e8_functional_rows () @ timing;
    note =
      "ASID tagging gives functional isolation (the Syeda & Klein-style \
       theorem) but the capacity contention still leaks timing - the TLB \
       is flushable state and must be flushed, per Sect. 4.1";
  }

(* ------------------------------------------------------------------ *)
(* E9: stateless interconnect (Sect. 2)                                *)

let e9_interconnect ?(seeds = default_seeds) ?pool () =
  let row (name, bus, cfg) =
    let o =
      Attack.measure ~seeds ?pool
        (Interconnect_channel.scenario ~bus ())
        ~cfg ()
    in
    [ name; Table.cell_float o.Attack.capacity_bits;
      (if o.Attack.capacity_bits > 0.01 then "open" else "closed") ]
  in
  {
    Table.id = "E9";
    title = "stateless interconnect channel (cross-core, concurrent)";
    anchor = "Sect. 2";
    headers = [ "configuration"; "capacity(bits)"; "channel" ];
    rows =
      List.map row
        [
          ("none, shared bus", Interconnect_channel.shared_bus, Presets.none);
          ("FULL time protection, shared bus",
           Interconnect_channel.shared_bus, Presets.full);
          ("full + MBA-style approximate throttling",
           Interconnect_channel.mba_bus, Presets.full);
          ("full + hypothetical TDMA bandwidth partitioning",
           Interconnect_channel.tdma_bus, Presets.full);
        ];
    note =
      "the paper's stated scope limit: no OS mechanism closes bandwidth \
       contention; it needs hardware partitioning, which no mainstream \
       hardware provides";
  }

(* ------------------------------------------------------------------ *)
(* E10: colour inventory (Sect. 4.1)                                   *)

let e10_colours () =
  let line_bits = 6 in
  let geometries =
    [
      ("256 KiB, 8-way", 512, 8);
      ("512 KiB, 8-way", 1024, 8);
      ("2 MiB, 16-way", 2048, 16);
      ("8 MiB, 16-way", 8192, 16);
      ("32 MiB, 16-way", 32768, 16);
    ]
  in
  let rows =
    List.map
      (fun (name, sets, ways) ->
        let g = Cache.geometry ~sets ~ways ~line_bits () in
        let colours = Cache.n_colours g ~page_bits:12 in
        [
          name;
          string_of_int sets;
          string_of_int ways;
          string_of_int colours;
          (if colours >= 64 then ">= 64: ample for colouring"
           else "small cache: few colours");
        ])
      geometries
  in
  {
    Table.id = "E10";
    title = "page-colour inventory of last-level caches (4 KiB pages)";
    anchor = "Sect. 4.1";
    headers = [ "LLC"; "sets"; "ways"; "colours"; "assessment" ];
    rows;
    note =
      "the paper: 'modern last-level caches have at least 64 different \
       colours' - reproduced by the geometry arithmetic for >= 8 MiB LLCs";
  }

(* ------------------------------------------------------------------ *)
(* E11: padding strategies (Sect. 4.3)                                 *)

let e11_slice = 20_000
let e11_pad = 12_000
let e11_secrets = [ 0; 1; 2; 3 ]

let e11_run ~interim ~seed ~secret =
  let machine_config =
    {
      Machine.default_config with
      Machine.lat = Latency.with_seed Latency.default seed;
    }
  in
  let k = Kernel.create ~machine_config Presets.full in
  let hi = Kernel.create_domain k ~slice:e11_slice ~pad_cycles:e11_pad () in
  let lo = Kernel.create_domain k ~slice:e11_slice ~pad_cycles:e11_pad () in
  ignore
    (Kernel.spawn k hi
       [|
         Program.Compute (3_000 + (secret * 500));
         Program.Syscall (Program.Sys_send { ep = 0; msg = 0 });
         Program.Halt;
       |]);
  let filler =
    if interim then
      Some (Kernel.spawn k hi (Array.make 2_000 (Program.Compute 50)))
    else None
  in
  let net =
    Kernel.spawn k lo
      [|
        Program.Syscall (Program.Sys_recv { ep = 0 });
        Program.Read_clock;
        Program.Halt;
      |]
  in
  (* count the filler's progress only up to the first switch out of Hi:
     that is the work recovered from the padding window of one slice *)
  let useful_at_first_switch = ref None in
  Kernel.run ~max_steps:100_000 k ~on_step:(fun _ ->
      match (Kernel.last_event k, !useful_at_first_switch, filler) with
      | Some (Event.Switch { from_dom; _ }), None, Some th
        when from_dom = hi.Domain.did ->
        useful_at_first_switch := Some (th.Thread.pc * 50)
      | _ -> ());
  let arrival =
    match Prime_probe.clock_values (Thread.observations net) with
    | [ t ] -> t
    | _ -> -1
  in
  let useful = Option.value ~default:0 !useful_at_first_switch in
  (arrival, useful)

let e11_padding_strategies ?(seeds = default_seeds) () =
  let measure ~interim =
    let samples =
      List.concat_map
        (fun secret ->
          List.map (fun seed ->
              let arrival, useful = e11_run ~interim ~seed ~secret in
              ((secret, arrival), useful))
            seeds)
        e11_secrets
    in
    let capacity = Capacity.of_samples (List.map fst samples) in
    let useful_mean =
      let l = List.map snd samples in
      List.fold_left ( + ) 0 l / List.length l
    in
    (capacity, useful_mean)
  in
  let cap_busy, useful_busy = measure ~interim:false in
  let cap_interim, useful_interim = measure ~interim:true in
  let row name cap useful =
    [
      name;
      Table.cell_float cap;
      string_of_int useful;
      Printf.sprintf "%.0f%%" (100. *. float_of_int useful /. float_of_int e11_slice);
    ]
  in
  {
    Table.id = "E11";
    title = "padding the downgrader: busy idle vs. interim Hi thread";
    anchor = "Sect. 4.3";
    headers =
      [ "strategy"; "capacity(bits)"; "useful cycles in Hi slice"; "utilisation" ];
    rows =
      [
        row "kernel idles to slice boundary (busy padding)" cap_busy useful_busy;
        row "interim Hi thread scheduled during padding" cap_interim
          useful_interim;
      ];
    note =
      "both strategies keep delivery deterministic (capacity 0); \
       scheduling another Hi thread recovers the padding as useful work, \
       as Sect. 4.3 proposes";
  }

(* ------------------------------------------------------------------ *)
(* E12: hyperthreading (Sect. 4.1)                                     *)

let e12_smt ?(seeds = default_seeds) ?pool () =
  let row (name, smt, cfg) =
    let o =
      Attack.measure ~seeds ?pool (Smt_channel.scenario ~smt ()) ~cfg ()
    in
    [ name; Table.cell_float o.Attack.capacity_bits;
      (if o.Attack.capacity_bits > 0.01 then "open" else "closed") ]
  in
  {
    Table.id = "E12";
    title = "hyperthreading: concurrently shared core-private state";
    anchor = "Sect. 4.1";
    headers = [ "configuration"; "capacity(bits)"; "channel" ];
    rows =
      List.map row
        [
          ("sibling hyperthreads, no protection", true, Presets.none);
          ("sibling hyperthreads, FULL time protection", true, Presets.full);
          ("separate physical cores, full", false, Presets.full);
        ];
    note =
      "flushing cannot apply to concurrently shared state and the L1 has \
       no colours to partition: 'hyperthreading is fundamentally insecure, \
       and multiple hardware threads must never be allocated to different \
       security domains'";
  }

(* ------------------------------------------------------------------ *)
(* E13: Flush+Reload on shared memory (Sect. 4.2)                      *)

let e13_flush_reload ?(seeds = default_seeds) ?pool () =
  let row (name, shared, cfg) =
    let o =
      Attack.measure ~seeds ?pool (Flush_reload.scenario ~shared ()) ~cfg ()
    in
    [ name; Table.cell_float o.Attack.capacity_bits;
      (if o.Attack.capacity_bits > 0.01 then "open" else "closed") ]
  in
  {
    Table.id = "E13";
    title = "Flush+Reload on shared user memory";
    anchor = "Sect. 4.2 (Gullasch et al.; Yarom & Falkner)";
    headers = [ "configuration"; "capacity(bits)"; "channel" ];
    rows =
      List.map row
        [
          ("shared library page, none", true, Presets.none);
          ("shared library page, FULL time protection", true, Presets.full);
          ("per-domain copies, none", false, Presets.none);
          ("per-domain copies, full", false, Presets.full);
        ];
    note =
      "read-only sharing of a physical page defeats colouring (one frame, \
       one colour) and flushing (the LLC keeps the evidence); the defence \
       is not to share - the same reasoning that forces the kernel clone";
  }

(* ------------------------------------------------------------------ *)
(* E14: transmission protocol — error rate and bandwidth               *)

let e14_bandwidth ?seeds:_ () =
  let message_len = 24 in
  let row (name, scen) cfg_name cfg =
    let t =
      Protocol.transmit scen ~cfg
        ~message:(Protocol.random_message scen ~len:message_len)
    in
    [
      name;
      cfg_name;
      Printf.sprintf "%.0f%%" (100. *. t.Protocol.error_rate);
      Printf.sprintf "%.0f" t.Protocol.mean_cycles_per_symbol;
      Printf.sprintf "%.1f" t.Protocol.bandwidth_bits_per_mcycle;
    ]
  in
  let scenarios =
    [
      ("L1 prime+probe", Cache_channel.l1_scenario ());
      ("LLC prime+probe", Cache_channel.llc_scenario ());
      ("kernel text", Kernel_text.scenario ());
      ("downgrader", Downgrader.scenario ());
    ]
  in
  {
    Table.id = "E14";
    title = "covert-channel transmission: error rate and bandwidth";
    anchor = "methodology of Cock et al. (CCS'14)";
    headers =
      [ "channel"; "config"; "symbol errors"; "cycles/symbol"; "bits/Mcycle" ];
    rows =
      List.concat_map
        (fun sc ->
          [ row sc "none" Presets.none; row sc "full" Presets.full ])
        scenarios;
    note =
      "a trained nearest-centroid decoder transmits a 24-symbol message \
       over unseen noise seeds; with time protection on, training finds \
       nothing to separate and the bandwidth collapses to zero";
  }

(* ------------------------------------------------------------------ *)
(* E15: exhaustive small-universe verification (Sect. 5)               *)

let e15_exhaustive ?seeds:_ ?pool () =
  let open Tpro_secmodel in
  let row (name, cfg) =
    let build ~hi_prog ~seed =
      Ni_scenario.build_with_program_on ~with_btb:false ~cfg ~seed ~hi_prog
    in
    let r = Exhaustive.check ?pool ~build Exhaustive.default_universe in
    [
      name;
      string_of_int r.Exhaustive.programs;
      string_of_int r.Exhaustive.executions;
      string_of_int r.Exhaustive.violations;
      (if r.Exhaustive.violations = 0 then "NI proved over the universe"
       else "leaks found");
    ]
  in
  {
    Table.id = "E15";
    title = "exhaustive noninterference over every Hi program (small universe)";
    anchor = "Sect. 5 (the \"prove\" in the title)";
    headers = [ "config"; "Hi programs"; "executions"; "divergent"; "verdict" ];
    rows = [ row ("none", Presets.none); row ("full", Presets.full) ];
    note =
      "every program over a 7-instruction alphabet (length 3) under two \
       latency functions: a complete, not sampled, universal statement";
  }

(* ------------------------------------------------------------------ *)
(* E16: mutual noninterference between three domains (Sect. 2)         *)

let e16_mutual ?seeds:_ () =
  let row (name, cfg) =
    let c = Mutual.check ~cfg () in
    [
      name;
      (if c.Tpro_secmodel.Proofs.holds then "holds" else "VIOLATED");
      (Tpro_secmodel.Proofs.detail_text c.Tpro_secmodel.Proofs.detail);
    ]
  in
  {
    Table.id = "E16";
    title = "mutual noninterference: three mutually distrusting domains";
    anchor = "Sect. 2 (no hierarchical policy assumed)";
    headers = [ "config"; "verdict"; "evidence" ];
    rows = [ row ("none", Presets.none); row ("full", Presets.full) ];
    note =
      "Hi/Lo are roles relative to a secret: each domain's secret is \
       varied in turn and every other domain must observe nothing";
  }

(* ------------------------------------------------------------------ *)
(* E17: branch predictor (Sect. 3.1)                                   *)

let e17_branch_predictor ?(seeds = default_seeds) ?pool () =
  capacity_table ?pool ~seeds ~id:"E17"
    ~title:"branch-predictor training channel"
    ~anchor:"Sect. 3.1 (predictor state; the substrate Spectre poisons)"
    ~note:
      "the Trojan trains aliasing pattern-history entries; the spy's own \
       branches then mispredict at a secret-dependent rate - core-local \
       flushable state, closed exactly by flush_on_switch"
    (Bp_channel.scenario ())
    [
      ("none", Presets.none);
      ("full\\flush", Presets.without_flush);
      ("full", Presets.full);
    ]

(* ------------------------------------------------------------------ *)
(* E19: true side channel - AES-style table lookup (Sect. 3.1)         *)

let e19_side_channel ?(seeds = default_seeds) ?pool () =
  capacity_table ?pool ~seeds ~id:"E19"
    ~title:"table-lookup side channel: victim does not cooperate"
    ~anchor:"Sect. 3.1 (secret-derived array index; Osvik et al.)"
    ~note:
      "the victim's program text is identical for every secret - the        secret is data (a register) indexing a table; the spy recovers the        index bits from which cache set went missing, exactly the paper's        side-channel description; closed by flushing like all core-local        state"
    (Side_channel.scenario ())
    [
      ("none", Presets.none);
      ("colour-only", Presets.colour_only);
      ("flush+pad", Presets.flush_pad);
      ("full", Presets.full);
    ]

(* ------------------------------------------------------------------ *)
(* E18: the price of time protection (overhead vs slice length)        *)

let e18_workload ~seed ~cfg ~slice =
  let machine_config =
    {
      Machine.default_config with
      Machine.lat = Latency.with_seed Latency.default seed;
    }
  in
  let pad = Wcet.recommended_pad ~max_compute:100 machine_config in
  let k = Kernel.create ~machine_config cfg in
  (* Built domain by domain, not as a {!System.spec}: the order is
     load-bearing.  With colouring off both domains draw frames from one
     pool in allocation order, and {!System.build}'s phase order (every
     region, then every code image) moves the [none] column (slice 5000:
     380208 -> 388644; slice 100000: 278732 -> 284232). *)
  let mk_domain buf =
    let d = Kernel.create_domain k ~slice ~pad_cycles:pad () in
    Kernel.map_region k d ~vbase:buf ~pages:4;
    let work =
      Array.init 3_000 (fun i ->
          if i mod 3 = 0 then Program.Compute 20
          else Program.Load (buf + (i * 192 mod (4 * 4096))))
    in
    ignore (Kernel.spawn k d (Program.halted work));
    d
  in
  ignore (mk_domain 0x2000_0000);
  ignore (mk_domain 0x3000_0000);
  Kernel.run ~max_steps:400_000 k;
  Machine.now (Kernel.machine k) ~core:0

let e18_overhead ?(seeds = [ 0; 1; 2 ]) () =
  let mean l = List.fold_left ( + ) 0 l / List.length l in
  let rows =
    List.map
      (fun slice ->
        let t cfg = mean (List.map (fun seed -> e18_workload ~seed ~cfg ~slice) seeds) in
        let base = t Presets.none in
        let protected_ = t Presets.full in
        [
          string_of_int slice;
          string_of_int base;
          string_of_int protected_;
          Printf.sprintf "%.0f%%"
            (100.
            *. (float_of_int (protected_ - base) /. float_of_int base));
        ])
      [ 5_000; 10_000; 20_000; 50_000; 100_000 ]
  in
  {
    Table.id = "E18";
    title = "the price of time protection: workload completion time";
    anchor = "overhead shape of Ge et al. (EuroSys'19)";
    headers =
      [ "slice (cycles)"; "none"; "full TP"; "overhead" ];
    rows;
    note =
      "two compute/memory domains run to completion; padding and flushing \
       dominate at short slices and amortise as the slice grows, until \
       deterministic delivery's quantisation to slice boundaries bites at \
       very long slices - the trade the system designer tunes";
  }

(* ------------------------------------------------------------------ *)
(* E20: branch target buffer - a resource added through the registry    *)

let e20_btb ?(seeds = default_seeds) ?pool () =
  capacity_table ?pool ~seeds ~id:"E20"
    ~title:"branch-target-buffer priming channel (registry-added resource)"
    ~anchor:"Sect. 5.1 (the taxonomy is extensible: new flushable state)"
    ~note:
      "the BTB exists only through the machine's resource registry \
       (btb_entries); the switch flush resets it because the kernel \
       flushes whatever the registry lists as flushable - no per-layer \
       wiring, and flush_on_switch closes the channel like any other \
       core-local state"
    (Btb_channel.scenario ())
    [
      ("none", Presets.none);
      ("full\\flush", Presets.without_flush);
      ("full", Presets.full);
    ]

(* ------------------------------------------------------------------ *)

(* Every experiment in E-number order, keyed by its lowercase id: [ids],
   [by_id] and the suite behind [all], [all_par] and [run_supervised]
   are all read off this one list.  [?seeds] is passed through as given,
   so each experiment keeps its own default and one with no seed
   parameter ignores it; [pool], when given, additionally fans each
   capacity table's trial grid and E15's exhaustive sweep over the same
   domains. *)
type run = ?seeds:int list -> ?pool:Tpro_engine.Pool.t -> unit -> Table.t

let experiments : (string * run) list =
  [
    ("e1", fun ?seeds ?pool () -> e1_downgrader ?seeds ?pool ());
    ("e2", fun ?seeds ?pool () -> e2_l1_prime_probe ?seeds ?pool ());
    ("e3", fun ?seeds ?pool () -> e3_llc_prime_probe ?seeds ?pool ());
    ("e4", fun ?seeds ?pool:_ () -> e4_switch_latency ?seeds ());
    ("e5", fun ?seeds ?pool () -> e5_kernel_text ?seeds ?pool ());
    ("e6", fun ?seeds ?pool () -> e6_interrupts ?seeds ?pool ());
    ("e7", fun ?seeds:_ ?pool:_ () -> e7_proofs ());
    ("e8", fun ?seeds ?pool () -> e8_tlb ?seeds ?pool ());
    ("e9", fun ?seeds ?pool () -> e9_interconnect ?seeds ?pool ());
    ("e10", fun ?seeds:_ ?pool:_ () -> e10_colours ());
    ("e11", fun ?seeds ?pool:_ () -> e11_padding_strategies ?seeds ());
    ("e12", fun ?seeds ?pool () -> e12_smt ?seeds ?pool ());
    ("e13", fun ?seeds ?pool () -> e13_flush_reload ?seeds ?pool ());
    ("e14", fun ?seeds ?pool:_ () -> e14_bandwidth ?seeds ());
    ("e15", fun ?seeds ?pool () -> e15_exhaustive ?seeds ?pool ());
    ("e16", fun ?seeds ?pool:_ () -> e16_mutual ?seeds ());
    ("e17", fun ?seeds ?pool () -> e17_branch_predictor ?seeds ?pool ());
    ("e18", fun ?seeds ?pool:_ () -> e18_overhead ?seeds ());
    ("e19", fun ?seeds ?pool () -> e19_side_channel ?seeds ?pool ());
    ("e20", fun ?seeds ?pool () -> e20_btb ?seeds ?pool ());
  ]

let ids = List.map fst experiments

let by_id id = List.assoc_opt (String.lowercase_ascii id) experiments

let all ?seeds () = List.map (fun (_, (run : run)) -> run ?seeds ()) experiments

let all_par ?seeds ?pool ?domains () =
  let on p =
    Tpro_engine.Pool.map p (fun (_, (run : run)) -> run ?seeds ~pool:p ()) experiments
  in
  match pool with
  | Some p -> on p
  | None -> Tpro_engine.Pool.with_pool ?domains on

(* ------------------------------------------------------------------ *)
(* Supervised sweep with checkpoint/resume: a {!Tpro_engine.Campaign}
   with one task per table, keyed by position in the selection.  A
   raising table costs one [Error] row instead of the sweep, the trial
   grids inside each table still fan out over the supervisor's pool, and
   settled tables are checkpointed exactly ([Table.serialise]), so a
   resumed sweep re-renders them byte-identically without recomputing. *)

module Supervisor = Tpro_engine.Supervisor
module Campaign = Tpro_engine.Campaign

type sweep = {
  tables : (string * (Table.t, Supervisor.task_error) result) list;
  sweep_resumed : int;  (** tables reused from the checkpoint *)
  sweep_notes : string list;
}

let run_supervised ?seeds ~sup ?checkpoint ?resume ?only () =
  let selected =
    match only with
    | None -> experiments
    | Some keep -> List.filter (fun (id, _) -> List.mem id keep) experiments
  in
  let pool = Supervisor.pool sup in
  let runs = Array.of_list (List.map snd selected) in
  let o =
    Campaign.run ~sup ?checkpoint ?resume
      {
        Campaign.kind = "exp";
        params =
          [
            ( "seeds",
              match seeds with
              | Some l -> String.concat "," (List.map string_of_int l)
              | None -> "default" );
            ("tables", String.concat "," (List.map fst selected));
          ];
        keys = List.init (Array.length runs) Fun.id;
        execute =
          (fun ~fuel i ->
            Supervisor.Fuel.burn fuel;
            runs.(i) ?seeds ?pool ());
        codec = { Campaign.encode = Table.serialise; decode = Table.deserialise };
        batch = 1;
      }
  in
  {
    tables = List.map2 (fun (id, _) (_, r) -> (id, r)) selected o.Campaign.results;
    sweep_resumed = o.Campaign.resumed;
    sweep_notes = o.Campaign.notes;
  }
