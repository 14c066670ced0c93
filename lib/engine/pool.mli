(** A domain pool for fanning out independent trials.

    The experiment suite is embarrassingly parallel: every (secret, seed)
    trial builds its own fresh kernel and shares no mutable state with any
    other trial, and the experiment tables themselves are independent of
    one another.  This pool turns that independence into wall-clock
    speedup on OCaml 5 multicore without any external dependency.

    Scheduling: each {!map} call is one job — its items, an atomic
    next-index and a countdown — appended to the pool's FIFO of open
    jobs.  Worker domains and the waiting caller run the same loop:
    claim one item of the oldest open job with a fetch-and-add, run it,
    repeat.  Workers sleep on a condition variable while no job is
    open, so an idle pool burns no CPU; a caller sleeps only when no job
    is open while items of its own job are still running elsewhere.  A
    {!map} inside an item (nested fan-out) opens its own job and helps
    the older ones first, so it never deadlocks.

    Sizing: the default domain count comes from {!Calibrate} — a
    1-core container (or a CPU-quota'd host whose probe shows no real
    concurrency) gets a pool of size 1, which spawns no domains at all
    and degrades to plain in-order [List.map].  Calibrated parallel
    pools also enlarge each worker's minor heap to space out
    stop-the-world minor collections.  An explicit [~domains] is
    always honoured verbatim.

    Determinism guarantee: {!map} returns results in input order —
    item [k] writes slot [k] of a per-call array — and because every
    submitted function is pure (no shared state), the result list is
    bit-identical to [List.map] regardless of pool size or of which
    domain ran which item.  Parallelism never changes reported
    capacities. *)

type t

val recommended : unit -> int
(** The calibrated domain count for this host
    ({!Calibrate.recommended}): the runtime's suggested parallelism,
    degraded to 1 when a measured probe shows the "cores" do not
    actually run concurrently (1-core container, CPU quota). *)

val create : ?domains:int -> ?minor_heap_words:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains (the caller
    is the remaining one).  [domains] defaults to {!recommended}; values
    [< 1] are clamped to 1.  [minor_heap_words] sets each worker
    domain's minor-heap size; it defaults to the {!Calibrate} policy
    when [domains] is defaulted and to "leave it alone" when [domains]
    is explicit. *)

val create_opt : ?domains:int -> ?minor_heap_words:int -> unit -> (t, string) result
(** Like {!create}, but a worker-spawn failure (the runtime refusing
    more domains, resource exhaustion) returns [Error message] instead
    of raising, after joining any domains already spawned — nothing
    leaks.  The supervision layer uses this to degrade to sequential
    execution rather than abort a campaign. *)

val size : t -> int
(** Total parallelism of the pool, including the calling domain. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element of [xs], one item per
    claim, distributing the work across the pool, and returns the
    results in input order.  The caller participates in draining the
    work, so a pool is never idle while its owner waits.  If one or more
    applications raise, every item still runs, and then the exception
    of the {e lowest-indexed} failing element is re-raised —
    deterministically, matching what sequential [List.map] would have
    raised first. *)

val shutdown : t -> unit
(** Graceful shutdown: signals the workers, lets them finish the
    items of any job still open, and joins them.  Idempotent.  A pool that has been shut
    down remains usable: {!map} simply runs sequentially.  A {!map}
    already in flight completes; its caller runs the items the workers
    left. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] over a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)

(** {2 Introspection} *)

type stats = {
  pool_size : int;  (** {!size}: workers + the calling domain *)
  spawned_domains : int;  (** worker domains currently running *)
  steals : int;  (** always 0: items are claimed, never stolen *)
  tasks_executed : int;  (** items run by workers or helping callers *)
  tasks_injected : int;  (** items submitted from outside the pool *)
  minor_heap_words : int option;
      (** per-worker minor-heap sizing in force, if any *)
}

val stats : t -> stats
(** Scheduling counters since creation.  Counter reads are racy while
    work is in flight; exact when the pool is quiescent. *)
