(** Physical memory: a pool of page frames with ownership tracking.

    Contents are not modelled — the paper assumes verified memory
    protection and storage-channel freedom (seL4), so only the *timing*
    relevance of physical placement matters here: which frame a page lives
    in decides its cache colour. *)

type t

val free_owner : int
(** Owner value of an unallocated frame. *)

val create : ?page_bits:int -> n_frames:int -> unit -> t

val reset : t -> unit
(** Free every frame, as at [create]. *)

val page_bits : t -> int
val page_size : t -> int
val n_frames : t -> int

val owner_of_frame : t -> int -> int
val set_owner : t -> frame:int -> owner:int -> unit

val paddr_of_frame : t -> int -> int
(** Base physical address of a frame. *)

val frame_of_paddr : t -> int -> int

val frames_owned_by : t -> int -> int list

val pp : Format.formatter -> t -> unit
