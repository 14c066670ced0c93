(** Exhaustive noninterference checking over a small universe.

    The sampled checks in {!Proofs} play the adversary with random
    programs; this module removes the sampling for universes small enough
    to enumerate: *every* Hi program over a given instruction alphabet up
    to a given length is executed, and Lo's observations must be
    identical to the baseline for each one.  A pass is a genuine
    ∀-statement over the whole (finite) universe — the closest an
    executable artefact gets to the paper's proof, and a useful
    regression net: any model change that opens a leak in the small
    universe fails loudly with the offending program. *)

open Tpro_kernel

type universe = {
  hi_len : int;                       (** Hi program length (before Halt) *)
  hi_alphabet : Program.instr list;   (** per-slot instruction choices *)
  seeds : int list;                   (** latency functions to cover *)
}

val default_universe : universe
(** 7-instruction alphabet (loads/stores over the Hi buffer, compute,
    a system call), length 3, two latency seeds: 343 programs,
    686 executions. *)

val enumerate : universe -> Program.t list
(** All [|alphabet|^len] programs, each Halt-terminated. *)

val universe_size : universe -> int

type result = {
  programs : int;
  executions : int;
  violations : int;
  first_violation : string option;  (** offending Hi program, printed *)
}

val check :
  ?pool:Tpro_engine.Pool.t ->
  build:(hi_prog:Program.t -> seed:int -> Nonint.run) ->
  universe ->
  result
(** Run every program under every seed and compare Lo's observations and
    step costs against the all-[Compute] baseline program of the same
    length.  Given [pool], the (seed x program) sweep fans out across its
    domains; each execution boots its own kernel, so the result —
    including which violation is reported [first] — is identical to the
    sequential sweep for any pool size. *)

val pp_result : Format.formatter -> result -> unit

(** {1 Per-resource-kind universes}

    The registry-driven generalisation: each {!Tpro_hw.Resource.kind}
    defines a small adversary universe tailored to the structures of
    that kind (loads at line/page granularity for caches, mapped-page
    churn for TLBs, biased branches for predictors, strided loads for
    prefetchers), so the ∀ is genuinely exhaustive per kind and a newly
    registered resource of a known kind inherits an exhaustive
    obligation with zero edits here. *)

val universe_for_kind : ?hi_buf:int -> Tpro_hw.Resource.kind -> universe option
(** [None] for kinds with no meaningful adversary program model
    (interconnects, ad-hoc resources).  [hi_buf] defaults to the
    standard Hi buffer base; all addresses stay within two pages of it,
    matching the small-program scenario's mapping. *)

type kind_universe = {
  ku_label : string;  (** {!Tpro_hw.Resource.kind_label} *)
  ku_resources : string list;  (** registry resources of that kind *)
  ku_universe : universe;
}

val kind_universes :
  ?hi_buf:int -> machine:Tpro_hw.Machine.t -> unit -> kind_universe list
(** The universes the machine's registry calls for: one per distinct
    resource kind (first-seen registry order, core 0 then shared) that
    has a universe. *)
