(** Hardware cycle counter.

    The paper's "time model": a simple formalisation of a hardware clock
    sufficient to compare time stamps, which is all that verifying padding
    requires (Sect. 5).  One clock per core; cycles are abstract units. *)

type t

val create : unit -> t

val now : t -> int

val reset : t -> unit
(** Back to cycle 0, as at [create]. *)

val advance : t -> int -> unit
(** [advance t c] moves the clock forward by [c >= 0] cycles. *)

val wait_until : t -> int -> int
(** [wait_until t deadline] advances the clock to [deadline] if it is in
    the future and returns the number of cycles spent waiting (0 if the
    deadline already passed — the caller must treat that as a padding
    overrun). *)

val pp : Format.formatter -> t -> unit
