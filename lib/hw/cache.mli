(** Set-associative cache model.

    This is the abstract micro-architectural resource at the heart of the
    paper: a stateful structure shared between security domains whose
    contents influence execution latency.  The model tracks, per line, the
    tag, validity, dirtiness and (for diagnostics and invariant checking
    only — real hardware has no such field) the owning security domain.

    Page colours: with [sets * line_size > page_size], the set index of a
    physical address extends above the page offset, so the OS controls the
    high index bits through frame allocation.  [n_colours] and
    [colour_of_paddr] expose this geometry exactly as used by page-colouring
    allocators (Kessler & Hill 1992; Liedtke et al. 1997). *)

type geometry = {
  sets : int;       (** number of sets; must be a power of two *)
  ways : int;       (** associativity *)
  line_bits : int;  (** log2 of the line size in bytes *)
}

type replacement =
  | Lru
  | Fifo
  | Pseudo_random of int
      (** victim chosen by hashing (seed, set index, per-set access count):
          arbitrary like a hardware LFSR, but a function of *set-local*
          history only, so it cannot itself become a cross-partition
          channel *)

type t

type evicted = { tag : int; dirty : bool; owner : int }

type access_result =
  | Hit
  | Miss of evicted option
      (** [Miss (Some e)] evicted a valid line [e]; [Miss None] filled an
          invalid way. *)

val shared_owner : int
(** Owner value used for lines that belong to no particular domain
    (e.g. shared kernel text before cloning). *)

val geometry :
  ?sets:int -> ?ways:int -> ?line_bits:int -> unit -> geometry
(** Geometry smart constructor with validation.  Defaults: 64 sets,
    4 ways, 64-byte lines (a typical L1). *)

val create : ?name:string -> ?replacement:replacement -> geometry -> t
(** Default replacement: [Lru]. *)

val replacement : t -> replacement

val name : t -> string
val geom : t -> geometry

val line_size : geometry -> int
val size_bytes : geometry -> int

val n_colours : geometry -> page_bits:int -> int
(** Number of page colours this cache exposes; at least 1. *)

val colour_of_paddr : geometry -> page_bits:int -> int -> int
(** Colour of the page containing a physical address. *)

val colour_of_set : geometry -> page_bits:int -> int -> int
(** Colour that a given set index belongs to. *)

val set_of_paddr : t -> int -> int
val tag_of_paddr : t -> int -> int

val paddr_of_line : t -> set:int -> tag:int -> int
(** Base physical address of the line with the given set index and tag —
    the inverse of ([set_of_paddr], [tag_of_paddr]) up to the line offset,
    computed from the shifts precomputed at [create] time.  Used to write
    evicted dirty lines back into the next level. *)

val access : t -> owner:int -> write:bool -> int -> access_result
(** [access t ~owner ~write paddr] performs an access, updating LRU state
    and allocating on miss (write-allocate, write-back). *)

val probe : t -> int -> bool
(** [probe t paddr] is [true] iff the access would hit.  Does not modify
    any state (used by attackers' timing analysis and by invariants). *)

val owner_of : t -> int -> int option
(** Owner of the line holding [paddr], if present. *)

val flush : t -> int
(** Invalidate everything; returns the number of dirty lines that had to be
    written back — the history-dependent component of flush latency that
    motivates padding (Sect. 4.2 of the paper).  The count comes from an
    O(1) per-resource dirty counter.  Only sets accessed since the last
    flush are reset (the others already hold the power-on image), so
    flushing a cache that has seen no access is O(1).  A flushed cache
    behaves exactly as a new one, replacement state included. *)

val invalidate_line : t -> int -> bool
(** [invalidate_line t paddr] drops the line holding [paddr] if present
    (a [clflush]-style maintenance operation); returns [true] iff the
    dropped line was dirty (and thus written back). *)

val dirty_count : t -> int
(** O(1): maintained incrementally in the flat store. *)

val valid_count : t -> int
(** O(1): maintained incrementally in the flat store. *)

val iter_lines : t -> (set:int -> way:int -> tag:int -> dirty:bool -> owner:int -> unit) -> unit
(** Iterate over all valid lines (for invariant checks). *)

val changes : t -> int
(** A change counter: bumped by every write that stales a set's digest
    and by every {!flush}.  While it reads the same, every digest of the
    cache ({!digest_set}, {!digest}, {!digest_colours}) is unchanged, so
    a caller may keep a derived value keyed on it. *)

val digest_set : t -> int -> int64
(** Deterministic digest of one set's contents (tags, validity, dirtiness,
    recency).  This is the state a single access's latency may legitimately
    depend on, per Sect. 5.2 Case 1 of the paper.  Memoised: O(1) unless
    the set changed since it was last digested. *)

val digest : t -> int64
(** Digest of the whole cache (used for flush latency and for the
    adversarial checker that detects illegitimate dependencies).

    Maintained incrementally: per-set digests are cached on write-through
    a stale watermark, so this is O(1) when the cache is unchanged since
    the last call and O(sets above the lowest changed set) otherwise —
    never the historical O(sets x ways) fold.  The value is bit-identical
    to {!digest_fold} by construction (both go through [Rng.chain]). *)

val digest_colours :
  t -> page_bits:int -> colours:int list -> seed:int64 -> int64
(** [digest_colours t ~page_bits ~colours ~seed] chains, from [seed], the
    memoised {!digest_set} of every set whose colour is in [colours], in
    ascending set order — the Lo-coloured slice of a partitioned cache.
    Colours at or above {!n_colours} own no set and duplicates count
    once.  Only the owned colours' runs of sets are visited. *)

val digest_set_fold : t -> int -> int64
(** [digest_set] recomputed from scratch, bypassing the memo — ground
    truth for the per-set differential tests. *)

val digest_fold : t -> int64
(** [digest] recomputed from scratch as the historical O(sets x ways)
    fold, bypassing every cache.  Used by {!Resource.audit} and by
    benchmarks as the "before" arm of incremental-vs-fold pairs. *)

val pp : Format.formatter -> t -> unit
