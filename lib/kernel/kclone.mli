(** Kernel images and the kernel-clone mechanism (Sect. 4.2).

    Even read-only sharing of code creates a channel (Gullasch et al. 2011;
    Yarom & Falkner 2014), so the kernel image itself must be coloured.
    The clone mechanism sets up a domain-private copy of the kernel text in
    memory of the domain's own colours.  Kernel *global data* remains
    shared; the kernel accesses it deterministically and re-establishes a
    canonical cache state for it on every domain switch, which is what the
    paper's Case 2a argument relies on.

    A trap's kernel path is modelled as a fixed window of text lines per
    trap kind — enough structure for a spy to distinguish which paths a
    Trojan exercised when the image is shared, and for the clone to remove
    exactly that.  Because strict colouring makes physically-contiguous
    multi-frame runs of one colour impossible, an image addresses its lines
    through a frame table (the model's analogue of the kernel's virtual
    mapping of its own image). *)

open Tpro_hw

type image

val text_lines : int
(** Kernel text size in cache lines: 64 (one 4 KiB frame at 64-byte
    lines). *)

val data_lines : int
(** Kernel global data: 16 lines. *)

type path = { first_line : int; n_lines : int }

val path_of_kind : string -> path
(** Text window fetched by each trap kind: ["null"], ["info"], ["send"],
    ["recv"], ["arm_irq"], ["fault"], ["irq"], ["switch"], ["switch_exit"].
    Windows of distinct kinds are disjoint where it matters for the
    kernel-text channel (E5). *)

val trap_kinds : string list

val owner : image -> int
(** Cache-line owner recorded for this image's text. *)

val boot : Frame_alloc.t -> Mem.t -> line_bits:int -> image
(** Allocate the shared kernel image (global data, then text) from the
    reserved kernel colour, owned by {!Cache.shared_owner}.  The image
    stores the physical address of every line it lays out with
    [line_bits]. *)

val clone :
  Frame_alloc.t ->
  Mem.t ->
  line_bits:int ->
  shared:image ->
  colours:int list ->
  owner:int ->
  image
(** Domain-private copy: fresh text frames of the domain's colours; global
    data frames are shared with [shared]. *)

val text_line : image -> int -> int
(** [text_line img i]: physical address of text line [i], looked up in
    the table built at boot or clone (the kernel's per-trap path). *)

val data_line : image -> int -> int
(** [data_line img i]: physical address of global-data line [i]. *)

val text_paddrs : image -> path -> int list
(** Physical addresses of the lines fetched along [path]. *)

val data_paddrs : image -> int list
(** Physical addresses of all kernel global-data lines. *)

val text_frames : image -> int list
val data_frames : image -> int list

val same_text : image -> image -> bool
(** Do two images share their text frames (i.e. no clone happened)? *)
