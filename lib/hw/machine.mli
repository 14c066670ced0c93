(** The whole abstract machine: per-core private state (L1 I/D caches,
    TLB, branch predictor, prefetcher, cycle counter) plus shared state
    (last-level cache, memory interconnect, physical memory).

    Every operation advances the issuing core's clock by the cycles it
    consumed and returns that cost.  Costs are computed from base latencies
    plus the unspecified jitter function applied to digests of exactly the
    state each event may legitimately depend on (Sect. 5.2, Case 1 of the
    paper): a hit examines the indexed set of the cache that hit; a miss
    additionally examines the next level; a DRAM access also queues on the
    interconnect. *)

type t

type fault =
  | Skip_flush of string
      (** [flush_core_local] neither flushes nor reports the named
          resource — the kernel's flush-coverage audit can observe the
          gap (it raises {!Kernel.Uncovered_flushable}) *)
  | Silent_skip_flush of string
      (** the named resource is left un-flushed but an empty
          {!Resource.flush_report} is filed for it anyway, so the
          kernel's audit passes and only behavioural oracles (digest or
          timing divergence) can catch the bypass *)

type config = {
  n_cores : int;
  l1_geom : Cache.geometry;
  l2_geom : Cache.geometry option;
      (** optional private second-level cache (the paper: "private L2
          caches (on Intel hardware)" are flushable core-local state) *)
  llc_geom : Cache.geometry;
  tlb_capacity : int;
  n_frames : int;
  page_bits : int;
  lat : Latency.t;
  bus_mode : Interconnect.mode;
  bus_service : int;  (** interconnect occupancy per transfer *)
  prefetch_enabled : bool;
  smt : bool;
      (** hardware multithreading: hardware thread [2k+1] shares all the
          private micro-architectural state of thread [2k] (only the
          cycle counter is per-thread) — the paper's "fundamentally
          insecure" configuration when threads belong to different
          domains *)
  replacement : Cache.replacement;  (** replacement policy for all caches *)
  btb_entries : int option;
      (** branch target buffer size; [None] (the default) omits the BTB,
          leaving digests and costs identical to pre-BTB machines *)
  fault : fault option;
      (** deliberate defence bypass, used only to validate that the fuzz
          oracles kill known-broken machines; [None] everywhere else *)
}

val default_config : config
(** 1 core, 64-set/4-way L1s (16 KiB — exactly one page colour, so the L1
    cannot be partitioned and must be flushed, as the paper observes),
    1024-set/8-way LLC (512 KiB, 16 page colours with 4 KiB pages),
    32-entry TLB, 1024 frames. *)

val create : config -> t

val reset : t -> unit
(** Return the machine to the state [create (config t)] returns: every
    cache, TLB, predictor, prefetcher and BTB at power-on (replacement
    and recency state included), clocks at 0, every frame free, and the
    registries without any resource registered after [create].  Replaying
    one trace on a reset machine and on a fresh one gives the same costs,
    clocks and digests.  Cheaper than [create]: it resets only what was
    touched and allocates no cache storage. *)

val config : t -> config
val n_cores : t -> int
val clock : t -> core:int -> Clock.t
val now : t -> core:int -> int
val llc : t -> Cache.t
val l1i : t -> core:int -> Cache.t
val l1d : t -> core:int -> Cache.t
val l2 : t -> core:int -> Cache.t option
val tlb : t -> core:int -> Tlb.t
val bpred : t -> core:int -> Bpred.t
val prefetch : t -> core:int -> Prefetch.t
val btb : t -> core:int -> Btb.t option
val bus : t -> Interconnect.t
val mem : t -> Mem.t
val lat : t -> Latency.t
val page_bits : t -> int
val n_colours : t -> int
(** Page colours exposed by the LLC. *)

(** {1 Resource registry}

    Every piece of micro-architectural state is also packed as a
    {!Resource.t} and registered: per-core registries hold the private
    (flushable) structures, the machine-wide registry holds the shared
    ones.  [digest_core], [digest_shared], [flush_core_local] and [pp]
    are folds over these registries, and the security model derives its
    taxonomy from them — so a resource registered here is automatically
    digested, flushed, audited and printed with no per-layer wiring. *)

val core_resources : t -> core:int -> Resource.t list
(** Present resources of one core, in registry (digest/flush) order. *)

val flushable_names : t -> core:int -> string list
(** Names of the present flushable resources of one core, in flush order:
    the obligation the kernel checks every switch's flush report against.
    Kept with the registry, so reading it allocates nothing. *)

val shared_resources : t -> Resource.t list
(** Present shared resources: the LLC (partitionable, with its colour
    count) and the interconnect (out of scope). *)

val register_core_resource : t -> core:int -> Resource.t -> unit
(** Append an extra resource to one core's registry.  It is appended as
    its own digest group, so digests of machines without it are
    unaffected; from now on it participates in [digest_core], in
    [flush_core_local] (if flushable) and in the derived taxonomy.  With
    SMT, hardware threads [2k] and [2k+1] share one registry, so the
    resource is registered on both. *)

val register_shared_resource : t -> Resource.t -> unit

(** {1 Virtual accesses (user mode)} *)

val load :
  t ->
  core:int ->
  asid:int ->
  domain:int ->
  translate:(int -> int option) ->
  pc:int ->
  int ->
  (int, [ `Fault ]) result
(** [load t ~core ~asid ~domain ~translate ~pc vaddr] performs a data read:
    TLB lookup (page walk via [translate] on miss), then L1D → LLC → DRAM.
    Returns the cycles consumed, or [`Fault] if the translation is
    undefined (a trap — Case 2a).  [domain] is recorded as line owner for
    invariant checking only. *)

val store :
  t ->
  core:int ->
  asid:int ->
  domain:int ->
  translate:(int -> int option) ->
  pc:int ->
  int ->
  (int, [ `Fault ]) result

val fetch :
  t ->
  core:int ->
  asid:int ->
  domain:int ->
  translate:(int -> int option) ->
  int ->
  (int, [ `Fault ]) result
(** Instruction fetch at a virtual pc, through the L1 I-cache. *)

val branch : t -> core:int -> pc:int -> taken:bool -> int
(** Resolve a branch through the predictor; cost is [branch_hit] or
    [branch_miss]. *)

val compute : t -> core:int -> cycles:int -> int
(** Pure ALU work: data-independent, exactly [cycles]. *)

(** {1 Physical accesses (kernel mode)} *)

val touch_paddr : t -> core:int -> owner:int -> write:bool -> int -> int
(** Kernel data access by physical address (kernel runs untranslated),
    through L1D → LLC → DRAM. *)

val fetch_paddr : t -> core:int -> owner:int -> int -> int
(** Kernel text fetch by physical address, through L1I → LLC → DRAM. *)

val flush_line :
  t ->
  core:int ->
  asid:int ->
  translate:(int -> int option) ->
  int ->
  (int, [ `Fault ]) result
(** [clflush]-style line invalidation by virtual address: drops the line
    from every cache level on every core (cache maintenance is coherent).
    The attacker's tool in Flush+Reload.  Returns the cycles consumed. *)

(** {1 Time-protection primitives} *)

val flush_core_local : t -> core:int -> int
(** Flush all core-private state (every registered flushable resource:
    L1 I/D, private L2, TLB, branch predictor, prefetcher, BTB when
    configured, plus anything registered later).  The returned cost is
    *history-dependent* — base plus a per-dirty-line write-back term plus
    jitter over the pre-flush state — which is precisely why the paper
    pads the domain switch. *)

val flush_core_local_report :
  t -> core:int -> int * (string * Resource.flush_report) list
(** Like [flush_core_local], but also returns, per flushed resource and
    in flush order, its name and {!Resource.flush_report} — the kernel's
    evidence that the switch flush covered every registered flushable
    resource. *)

val wait_until : t -> core:int -> int -> int
(** Padding: spin the core's clock to an absolute deadline.  Returns
    cycles waited (0 if the deadline already passed). *)

val digest_shared : t -> int64
(** Digest of all shared (cross-core) state: LLC + interconnect.
    Resources maintain their digests incrementally, so this is an
    O(#resources) fold over cached values when nothing changed. *)

val digest_core : t -> core:int -> int64
(** Digest of one core's private micro-architectural state.  Same
    incremental-cache property as {!digest_shared}. *)

val digest_shared_fold : t -> int64
(** {!digest_shared} with every resource re-folded from scratch —
    differential ground truth (see {!Resource.audit}). *)

val digest_core_fold : t -> core:int -> int64
(** {!digest_core} with every resource re-folded from scratch. *)

val pp : Format.formatter -> t -> unit
