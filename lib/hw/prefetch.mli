(** Stride prefetcher state machine.

    Core-local, flushable state in the paper's taxonomy.  Tracks per-PC
    access strides; once confident, it predicts the next addresses, which
    the memory hierarchy then pulls into the caches — making future latency
    depend on past access patterns (the channel). *)

type t

val create : ?slots:int -> unit -> t
(** Defaults to 16 tracking slots. *)

val observe : t -> pc:int -> addr:int -> int list
(** Record a memory access; returns the addresses the prefetcher would
    fetch (empty unless a stable stride has been observed twice). *)

val flush : t -> unit
(** O(1) if no observation moved any slot since the last flush. *)

val digest : t -> int64
(** Memoised: O(1) unless an {!observe} moved slot state since the last
    call. *)

val digest_fold : t -> int64
(** [digest] recomputed from scratch, bypassing the memo — ground truth
    for {!Resource.audit}. *)

val pp : Format.formatter -> t -> unit
