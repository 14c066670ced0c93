(** Executable analogues of the paper's proof obligations (Sect. 5.2).

    Where the paper proposes Isabelle proofs over an abstract hardware
    model, this module provides machine-checked-by-execution counterparts
    over the same abstraction: each obligation is an exhaustive check over
    a sampled universe of programs, secrets and latency functions
    (remember the time model is an *unspecified* deterministic function —
    a claim must hold for every seed, so the checkers quantify over
    seeds).  A [check] failing pinpoints a counter-example.

    Cases 1 and 2a and top-level noninterference execute nothing: they
    read the comparisons [Theorem.collect] makes after running each
    secret once, so the three verdicts are judged on the same runs. *)

open Tpro_kernel

type detail =
  | Counter_example of string
      (** a concrete witness that the obligation fails *)
  | Stats of string  (** summary statistics of a passing check *)

val detail_text : detail -> string
(** The payload string, for rendering.  [pp] and every CSV emitter go
    through this, so the rendered output is unchanged from when [detail]
    was a bare string. *)

type check = {
  name : string;
  description : string;
  holds : bool;
  detail : detail;
}

val case1_user_steps : (int * int * Nonint.divergence_report) list -> check
(** Case 1: the cycle cost of every ordinary user-mode instruction
    executed by Lo is independent of Hi's secret.  Read off the
    comparisons of one run per secret with the first secret's run: one
    [(first, secret, report)] per other secret, as [Theorem.collect]
    makes them. *)

val case2a_traps : (int * int * Nonint.divergence_report) list -> check
(** Case 2a: the cycle cost of every Lo trap (system call, fault) is
    independent of Hi's secret.  Same comparisons as {!case1_user_steps}. *)

val case2b_constant_switch : Kernel.t -> check
(** Case 2b: every padded domain switch completed exactly at
    [slice_start + slice + pad] of the switched-from domain, with no
    overruns.  Evaluated on a completed run's event trace. *)

val noninterference : (int * int * Nonint.divergence_report) list -> check
(** The top-level property: Lo's complete observation traces agree across
    all secrets.  Same comparisons as {!case1_user_steps}. *)

val invariants_throughout : Kernel.t -> (int -> unit) * (unit -> check)
(** Partitioning invariants hold in every reachable state of a run:
    checked on the kernel's state now, every 50 steps through the
    returned step hook (for [Kernel.run ~on_step]), and on the last
    state when the check is read, once the run has ended.
    [Theorem.collect] hooks it into the first secret's run. *)

val across_seeds :
  seeds:int list -> (seed:int -> check) -> check
(** Conjunction of a check over several latency-function seeds; the
    paper's "deterministic yet unspecified" quantification. *)

val pp : Format.formatter -> check -> unit
