(** The experiment suite: one table per claim of the paper.

    The paper (a HotOS vision paper) has a single figure and no
    quantitative tables; DESIGN.md maps each of its claims to one of the
    experiments below.  Capacities are Blahut–Arimoto estimates in bits
    per channel use; "0.000" means the defence closed the channel on the
    sampled universe. *)

val default_seeds : int list
(** Latency-function seeds used as trials (default 0..7). *)

val e1_downgrader : ?seeds:int list -> ?pool:Tpro_engine.Pool.t -> unit -> Table.t
(** Figure 1 / Sect. 3.2: message arrival-time channel from the
    encryption downgrader, per configuration, plus application-level WCET
    padding (Sect. 4.3). *)

val e2_l1_prime_probe : ?seeds:int list -> ?pool:Tpro_engine.Pool.t -> unit -> Table.t
(** Sect. 3.1: prime-and-probe through the time-shared L1. *)

val e3_llc_prime_probe : ?seeds:int list -> ?pool:Tpro_engine.Pool.t -> unit -> Table.t
(** Sect. 3.1/4.1: prime-and-probe through the concurrently-shared LLC —
    flushing does not help, colouring does. *)

val e4_switch_latency : ?seeds:int list -> unit -> Table.t
(** Sect. 4.2: domain-switch cost as a function of the outgoing domain's
    dirty cache lines; raw cost varies (a channel), the padded slot is
    constant. *)

val e5_kernel_text : ?seeds:int list -> ?pool:Tpro_engine.Pool.t -> unit -> Table.t
(** Sect. 4.2: the shared kernel text channel and the clone defence. *)

val e6_interrupts : ?seeds:int list -> ?pool:Tpro_engine.Pool.t -> unit -> Table.t
(** Sect. 4.2: the interrupt channel and IRQ partitioning. *)

val e7_proofs : ?seeds:int list -> ?secrets:int list -> unit -> Table.t
(** Sect. 5.2: the proof stack (Cases 1/2a/2b, noninterference,
    invariants) under the full configuration vs. no protection. *)

val e8_tlb : ?seeds:int list -> ?pool:Tpro_engine.Pool.t -> unit -> Table.t
(** Sect. 5.3: the ASID partitioning (consistency) theorem, checked over
    random operation sequences, and the TLB *timing* channel showing that
    tagging alone is no defence. *)

val e9_interconnect : ?seeds:int list -> ?pool:Tpro_engine.Pool.t -> unit -> Table.t
(** Sect. 2: the stateless-interconnect channel survives full time
    protection; strict TDMA bandwidth partitioning closes it. *)

val e10_colours : unit -> Table.t
(** Sect. 4.1: page-colour inventory across realistic LLC geometries
    ("modern last-level caches have at least 64 colours"). *)

val e11_padding_strategies : ?seeds:int list -> unit -> Table.t
(** Sect. 4.3: padding by busy-waiting vs. scheduling an interim Hi
    thread — both close the channel; the interim thread recovers the
    padding time as useful work. *)

val e12_smt : ?seeds:int list -> ?pool:Tpro_engine.Pool.t -> unit -> Table.t
(** Sect. 4.1: sibling hyperthreads share core-private state
    concurrently; no OS mechanism helps — only separate physical cores
    (i.e. never scheduling two domains onto one core's hardware
    threads). *)

val e13_flush_reload : ?seeds:int list -> ?pool:Tpro_engine.Pool.t -> unit -> Table.t
(** Sect. 4.2: Flush+Reload through a shared user page — sharing defeats
    every OS defence; the fix is per-domain copies (the same reasoning
    that forces the kernel clone). *)

val e14_bandwidth : ?seeds:int list -> unit -> Table.t
(** End-to-end transmissions with a trained decoder: symbol error rate,
    cycles per symbol and achieved bandwidth per channel (the methodology
    of the empirical seL4 channel studies). *)

val e15_exhaustive : ?seeds:int list -> ?pool:Tpro_engine.Pool.t -> unit -> Table.t
(** Sect. 5: complete enumeration of every Hi program over a small
    alphabet — a universal, not sampled, noninterference statement. *)

val e16_mutual : ?seeds:int list -> unit -> Table.t
(** Sect. 2: three mutually distrusting domains; each secret varied in
    turn, no other domain may observe anything. *)

val e17_branch_predictor : ?seeds:int list -> ?pool:Tpro_engine.Pool.t -> unit -> Table.t
(** Sect. 3.1: the branch-predictor training channel — core-local
    flushable state, closed exactly by the flush. *)

val e18_overhead : ?seeds:int list -> unit -> Table.t
(** The cost side: workload completion time under full time protection
    vs. none, as a function of slice length — padding amortises with
    longer slices (the overhead shape of the EuroSys'19 evaluation). *)

val e19_side_channel : ?seeds:int list -> ?pool:Tpro_engine.Pool.t -> unit -> Table.t
(** Sect. 3.1: a *side* channel proper — the victim's program is fixed
    and the secret is data indexing a table; the spy recovers the index
    bits without any cooperation. *)

val e20_btb : ?seeds:int list -> ?pool:Tpro_engine.Pool.t -> unit -> Table.t
(** Sect. 5.1's extensibility claim, exercised: the branch target buffer
    exists in the machine only through the resource registry
    ([btb_entries]); its channel is closed by the switch flush because
    the kernel flushes whatever the registry lists as flushable. *)

val all : ?seeds:int list -> unit -> Table.t list
(** The whole suite, sequentially, in E-number order.  Every entry point
    here passes [?seeds] through as given, like {!by_id}: each
    experiment keeps its own default (E18's is [0,1,2]), and E7, E10 and
    E14-E16 ignore it. *)

val all_par :
  ?seeds:int list ->
  ?pool:Tpro_engine.Pool.t ->
  ?domains:int ->
  unit ->
  Table.t list
(** The whole suite fanned out over a domain pool, two levels deep: the
    independent experiment tables run concurrently, and within each
    capacity table the (secret x seed) trial grid (and E15's exhaustive
    sweep) shares the same pool.  Every trial boots its own kernel, so
    the tables are bit-identical to {!all} — parallelism never changes a
    reported capacity.  Pass [?pool] to reuse a pool, else a transient
    one of [?domains] (default {!Tpro_engine.Pool.recommended}) is used. *)

val ids : string list

type sweep = {
  tables :
    (string * (Table.t, Tpro_engine.Supervisor.task_error) result) list;
      (** one entry per selected experiment, in E-number order; a table
          whose task failed (after retries) settles as [Error] instead
          of aborting the sweep *)
  sweep_resumed : int;  (** tables reused from the checkpoint *)
  sweep_notes : string list;  (** resume/restart decisions *)
}

val run_supervised :
  ?seeds:int list ->
  sup:Tpro_engine.Supervisor.t ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?only:string list ->
  unit ->
  sweep
(** The suite under supervision, as a {!Tpro_engine.Campaign} of kind
    [exp]: each table is one supervised task (typed failure, bounded
    retry), keyed by its position in the selection, and each capacity
    table's trial grid fans out over the supervisor's pool.  With
    [?checkpoint], every settled table is serialised into a crash-safe
    snapshot; with [~resume:true] those tables are reloaded and
    re-rendered byte-identically instead of recomputed.  A damaged
    checkpoint, or one written for other seeds or another selection,
    restarts the sweep from scratch with a note.  [?only] restricts the
    sweep to the given lowercase ids (for [tpro exp]). *)

val by_id :
  string ->
  (?seeds:int list -> ?pool:Tpro_engine.Pool.t -> unit -> Table.t) option
(** The experiment behind an id of {!ids} (case-insensitive).
    Experiments that have no trial grid ignore [?pool]. *)
