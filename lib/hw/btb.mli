(** Branch target buffer: a direct-mapped table caching branch targets by
    pc.

    Like the direction predictor it is core-private, time-multiplexed
    state whose contents depend on which branches a domain executed —
    flushable state in the paper's Sect. 4.1/5.1 taxonomy.  The BTB is
    the resource added *end-to-end through the resource registry alone*:
    the machine registers it as a {!Resource.t} and digesting, kernel
    flushing, the taxonomy audit and the exhaustive checks all pick it up
    without any per-layer wiring. *)

type t

val create : ?entries:int -> unit -> t
(** Default: 64 entries, direct-mapped, indexed by [(pc lsr 2) mod
    entries] and tagged with the full pc. *)

val capacity : t -> int

val predict : t -> pc:int -> int option
(** Predicted target for a branch at [pc], if the BTB holds one. *)

val update : t -> pc:int -> target:int -> unit
(** Install (or overwrite) the entry for [pc]. *)

val entry_count : t -> int

val flush : t -> unit
(** Invalidate every entry (the time-protection reset).  BTB entries are
    never dirty: flushing writes nothing back. *)

val digest : t -> int64
(** Deterministic digest of the full BTB contents, in the same style as
    {!Cache.digest} / {!Bpred.digest}.  Memoised: O(1) unless an
    {!update} actually changed an entry since the last call. *)

val digest_fold : t -> int64
(** [digest] recomputed from scratch, bypassing the memo — ground truth
    for {!Resource.audit}. *)

val pp : Format.formatter -> t -> unit
