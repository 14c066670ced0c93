(** The kernel model: an seL4-style microkernel with switchable
    time-protection mechanisms (Sect. 4.2 of the paper).

    Each defence is an independent feature flag so experiments can ablate
    them one by one:

    - [colouring]: partition the LLC between domains by page colour
      (Sect. 4.1); colour 0 is reserved for the kernel.
    - [kernel_clone]: give each domain a private copy of the kernel text in
      its own colours (the policy-free clone mechanism).
    - [flush_on_switch]: reset all core-local micro-architectural state on
      each *domain* switch (never on intra-domain switches).
    - [pad_switch]: hide the history-dependent flush latency by padding the
      switch; the deadline is [slice_start + slice + pad_cycles] with the
      padding attribute supplied by the switched-from domain.
    - [partition_irqs]: keep interrupts masked unless owned by the current
      domain.
    - [deterministic_delivery]: the Cock et al. IPC discipline — a domain
      that runs out of runnable threads still occupies the processor until
      its padded slice boundary, so cross-domain message delivery times are
      policy-determined rather than behaviour-determined.

    The execution engine is event-driven over per-core cycle counters:
    each [step] runs one instruction (or one switch, interrupt or idle
    action) on the core whose clock is furthest behind. *)

open Tpro_hw

exception Uncovered_flushable of string
(** Raised by the switch path when [flush_on_switch] is on and the
    machine's flush report omits a resource the registry lists as
    flushable — the kernel's evidence obligation (every registered
    flushable resource is reset inside the padded switch) was not met.
    The payload is the uncovered resource's name. *)

type config = {
  colouring : bool;
  kernel_clone : bool;
  flush_on_switch : bool;
  pad_switch : bool;
  partition_irqs : bool;
  deterministic_delivery : bool;
}

val config_none : config
(** All defences off: a conventional OS. *)

val config_full : config
(** Full time protection. *)

val pp_config : Format.formatter -> config -> unit

type t

val create :
  ?machine_config:Machine.config ->
  ?machine:Machine.t ->
  ?n_endpoints:int ->
  ?n_irqs:int ->
  config ->
  t
(** Boot: build the machine, reserve kernel-colour frames and allocate the
    shared kernel image.  With [~machine], boot on that machine instead,
    after {!Machine.reset}: the kernel then behaves exactly as on a fresh
    machine of the same configuration, and whatever ran on the machine
    before must no longer be used.  [machine_config] defaults to
    {!Machine.default_config}, or to the machine's own configuration;
    giving both with different configurations raises
    [Invalid_argument]. *)

val machine : t -> Machine.t
val config : t -> config
val allocator : t -> Frame_alloc.t
val shared_image : t -> Kclone.image
val image_of_domain : t -> Domain.t -> Kclone.image
val irqs : t -> Irq.t
val domains : t -> Domain.t list
val domain : t -> int -> Domain.t

val create_domain :
  t -> ?core:int -> ?n_colours:int -> slice:int -> pad_cycles:int -> unit ->
  Domain.t
(** Create a domain and append it to its core's schedule.  With colouring
    on, it receives the next [n_colours] (default 1) unused colours and, if
    [kernel_clone] is configured, a private kernel image in those colours.
    With colouring off it may use every colour. *)

val set_schedule : t -> core:int -> int array -> (unit, Sched.error) result
(** Replace [core]'s scheduler order (by default, domains run in
    creation order).  The order is validated with {!Sched.make} — an
    empty order or an out-of-range domain index is a typed error — and
    every listed domain must be hosted on [core] (raises
    [Invalid_argument] otherwise, as does a [core] out of range).  The
    core's current domain becomes the order's head and its slice restarts
    at the core's current time; install schedules at boot, before
    threads run. *)

val map_region : t -> Domain.t -> vbase:int -> pages:int -> unit
(** Back a virtual region with freshly allocated frames of the domain's
    colours.  [vbase] must be page-aligned. *)

val spawn : ?regs:int array -> t -> Domain.t -> Program.t -> Thread.t
(** Create a thread, allocate and map its code image.  [regs]
    initialises the register file — the thread's *data*, where a secret
    lives in the side-channel scenarios. *)

val share_region :
  t ->
  owner:Domain.t ->
  guest:Domain.t ->
  vbase:int ->
  pages:int ->
  guest_vbase:int ->
  unit
(** Read-only sharing: map [owner]'s backed region (at [vbase]) into
    [guest]'s address space at [guest_vbase].  Shared frames keep the
    owner's colour, so sharing deliberately punctures cache partitioning
    — the substrate for the Flush+Reload experiment (E13).  A system
    aiming for time protection must simply not do this (or deduplicate
    with per-domain copies), which is the experiment's "defence" row. *)

val set_irq_owner : t -> irq:int -> dom:Domain.t -> unit

val vaddr_to_paddr : t -> Domain.t -> int -> int option

val step : t -> bool
(** Execute one action; [false] when no further action can change the
    system (all threads halted, or everything blocked with no pending
    interrupt). *)

val run : ?max_steps:int -> ?on_step:(int -> unit) -> t -> unit
(** Step until quiescent or [max_steps] (default 1_000_000), calling
    [on_step n] after the [n]th step. *)

val all_halted : t -> bool
val events : t -> Event.t list
(** Chronological kernel trace. *)

val last_event : t -> Event.t option
(** Most recent trace event (O(1), unlike [events]). *)

val current_domain : t -> core:int -> Domain.t
val now : t -> core:int -> int

val line_bits : t -> int
val page_bits : t -> int
val n_colours : t -> int

val pp : Format.formatter -> t -> unit
