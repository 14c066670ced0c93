(** State-level unwinding (after Murray et al., CPP 2012).

    The paper proposes phrasing time protection "akin to storage-channel
    freedom via a suitable noninterference property"; the workhorse of
    such proofs is an *unwinding relation*: if two system states are
    Lo-equivalent, they remain Lo-equivalent after every step.  This
    module checks the relation along paired executions: the two runs
    (differing only in Hi's secret) are advanced in lockstep to each
    successive Lo instruction boundary, and at every boundary *Lo's
    entire view of the machine state* — not merely its observations — is
    compared:

    - Lo's thread states (program counters, run states, messages);
    - Lo's observation trace so far;
    - one component per in-scope resource in the machine's registry —
      the resource's {!Tpro_hw.Resource.lo_project} under its obligation
      ([flush:<name>] for flushables, [partition:<name>] for
      partitionables; out-of-scope resources are excluded and surface
      through the theorem's acknowledgement machinery instead);
    - the core's cycle counter ([kernel:clock]).

    This is strictly stronger than comparing final observations: a
    divergence is caught at the first *state* difference, even if no
    observation has (yet) revealed it, and the report names the
    per-resource lemma that broke.  Because the view is a registry fold,
    a newly registered resource is covered with zero edits here. *)

open Tpro_kernel

type divergence = {
  lo_step : int;        (** Lo instruction boundary index *)
  component : string;   (** which part of Lo's view differs *)
}

type obs_memo
(** Incremental accumulator for the observation-trace component of the
    view.  Observation lists are append-only, so a memo carried across
    successive boundaries folds only the newly recorded observations —
    the value stays bit-identical to the from-scratch fold. *)

val obs_memo : unit -> obs_memo
(** A fresh memo; use one per run. *)

val lo_view : ?memo:obs_memo -> Kernel.t -> lo_dom:int -> (string * int64) list
(** Digest of each component of Lo's view of the current state.
    Without [memo] the observation trace is re-folded from scratch. *)

type sweep = {
  run_a : Nonint.run;
  run_b : Nonint.run;
  components : string list;
      (** view component names in view order (empty if the runs quiesced
          before the first Lo boundary) *)
  diverged : (string * int) list;
      (** for each component that ever diverged, the first Lo step at
          which it did — in discovery order (step-major, then view
          order), so the head is the first divergence *)
  progress : int option;
      (** Lo step at which one run quiesced while the other continued *)
  boundaries : int;  (** Lo boundaries at which the view was compared *)
}
(** Evidence from a full lockstep sweep: it does not stop at the first
    divergence, so a failure can be attributed to every per-resource
    lemma that broke, and both runs are fully executed afterwards (the
    fuzz oracle compares their observation traces). *)

val sweep_pair :
  ?max_lo_steps:int ->
  ?max_kernel_steps:int ->
  ?lo_dom:int ->
  build:(secret:int -> Nonint.run) ->
  secret1:int ->
  secret2:int ->
  unit ->
  sweep
(** Advance the runs for [secret1] and [secret2] in lockstep, Lo
    boundary by Lo boundary, comparing Lo's view at each (at most
    [max_lo_steps] boundaries, default 20,000).  [max_kernel_steps]
    bounds each run's total kernel steps (the fuzz oracle's runaway
    cap); default unbounded.  [lo_dom] nominates the observer domain
    whose view is compared — any domain of the run, so the same
    machinery evaluates every domain pair of an N-domain topology; the
    default (the first observer thread's domain) is the legacy Hi/Lo
    behaviour. *)

val first_divergence :
  diverged:(string * int) list -> progress:int option -> divergence option
(** The (step, view-order) first divergence, recovered from sweep
    evidence; a progress divergence reports component ["lo-progress"].
    [None] means the unwinding relation held at every Lo boundary
    reached by both runs. *)

val sweep_divergence : sweep -> divergence option

val check_of_pairs : ((int * int) * divergence option) list -> Proofs.check
(** The unwinding proof obligation over recorded evidence: one optional
    first divergence per secret pair, in pair order. *)
