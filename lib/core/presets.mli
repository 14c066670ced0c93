(** Named time-protection configurations and the ablation grid.

    Every experiment reports results against these presets; the ablations
    knock out one defence at a time from the full configuration to show
    that each mechanism is necessary. *)

open Tpro_kernel

val none : Kernel.config
(** A conventional OS: no time protection at all. *)

val full : Kernel.config
(** Complete time protection as proposed in Sect. 4.2. *)

val flush_pad : Kernel.config
(** Core-local flushing with padded switches only (no partitioning). *)

val colour_only : Kernel.config
(** LLC colouring only (no flushing). *)

val without_flush : Kernel.config
val without_pad : Kernel.config
val without_colouring : Kernel.config
val without_clone : Kernel.config
val without_irq_partitioning : Kernel.config
val without_deterministic_delivery : Kernel.config

val name : Kernel.config -> string
(** Preset name if recognised, else a flag summary. *)

val known : (string * Kernel.config) list
(** Every named preset once: {!standard}, then the knockouts of
    {!ablations}.  [tpro prove --all] proves exactly these, in this
    order. *)

val by_name : string -> Kernel.config option
(** Inverse of {!name} over {!known}. *)

val standard : (string * Kernel.config) list
(** [none; flush_pad; colour_only; full]. *)

val ablations : (string * Kernel.config) list
(** [full] plus each single-mechanism knockout. *)
