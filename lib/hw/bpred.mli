(** Gshare-style branch predictor with a branch target buffer.

    Branch-predictor state is core-local, time-multiplexed state in the
    paper's taxonomy: it must be flushed on domain switch (it cannot be
    partitioned by the OS, having no physical address).  Its contents
    influence latency through mispredictions. *)

type t

val create : ?history_bits:int -> ?table_bits:int -> unit -> t
(** Defaults: 8 bits of global history, 2^10 two-bit counters. *)

val predict : t -> pc:int -> bool
(** Predicted direction for the branch at [pc] (does not update state). *)

val update : t -> pc:int -> taken:bool -> bool
(** Record the branch outcome; returns [true] iff the prediction was
    correct (i.e. no misprediction penalty). *)

val flush : t -> unit
(** Reset counters and history to the power-on state.  O(1) if the
    predictor is already at power-on.  Otherwise it resets only the
    counters moved since the last flush, which a bounded log records;
    when more moved than the log holds, it resets every counter. *)

val digest : t -> int64
(** Memoised: O(1) unless an {!update} moved a counter or the history
    register since the last call. *)

val digest_fold : t -> int64
(** [digest] recomputed from scratch, bypassing the memo — ground truth
    for {!Resource.audit}. *)

val pp : Format.formatter -> t -> unit
