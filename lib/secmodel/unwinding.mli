(** State-level unwinding (after Murray et al., CPP 2012).

    The paper proposes phrasing time protection "akin to storage-channel
    freedom via a suitable noninterference property"; the workhorse of
    such proofs is an *unwinding relation*: if two system states are
    Lo-equivalent, they remain Lo-equivalent after every step.  This
    module checks the relation along paired executions that differ only
    in Hi's secret, one execution per secret: the first run records Lo's
    view at each of its Lo instruction boundaries, and the second
    compares its own view with that record at each of its boundaries
    while it executes.  The view is *Lo's entire view of the machine
    state* — not merely its observations:

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

val lo_view : Kernel.t -> lo_dom:int -> (string * int64) list
(** Digest of each component of Lo's view of the current state, in view
    order.  The sweeps resolve the view's parts once per run and reuse
    them at every boundary; this is a one-shot use of the same view. *)

type record
(** Lo's view at each Lo boundary of one run, up to 20,000 boundaries:
    one unboxed digest per view component per boundary. *)

val record : ?lo_dom:int -> Nonint.run -> (int -> unit) * record
(** The step hook that records a fresh {!Nonint.prepare}d run's Lo views
    while it executes (its [Kernel.run ~on_step]), and the record it
    fills.  [lo_dom] nominates the observer domain — any domain of the
    run, so the same machinery evaluates every domain pair of an
    N-domain topology; the default (the first observer thread's domain)
    is the legacy Hi/Lo behaviour.  The observer's domain, core and
    threads and the registry's in-scope resources are looked up once,
    when the hook is built (likewise by {!sweep_against}): a resource
    registered after that is not in the view. *)

val recorded_view : record -> int -> (string * int64) list
(** Lo's view as recorded at Lo boundary [k] (from 1), in the form
    {!lo_view} returns.  Raises [Invalid_argument] for a boundary the
    record does not hold. *)

type sweep = {
  run_a : Nonint.run;  (** the recorded run *)
  run_b : Nonint.run;  (** the run swept against the record *)
  components : string list;
      (** view component names in view order (empty if no boundary was
          compared) *)
  diverged : (string * int) list;
      (** for each component that ever diverged, the first Lo step at
          which it did — in discovery order (step-major, then view
          order), so the head is the first divergence *)
  progress : int option;
      (** the first Lo step (at most 20,000) that one run reached and
          the other did not *)
  boundaries : int;  (** Lo boundaries both runs reached (at most 20,000) *)
}
(** Evidence from a full sweep: it does not stop at the first
    divergence, so a failure can be attributed to every per-resource
    lemma that broke.  Both runs end fully executed (or at their
    kernel-step budget), so the fuzz oracle can compare their
    observation traces; the lockstep sweep this replaced left the
    longer run mid-way after a progress divergence. *)

val sweep_against : record -> Nonint.run -> (int -> unit) * (unit -> sweep)
(** The step hook that compares a run's Lo view with the record at each
    of its Lo boundaries while it executes, and the sweep to read once
    it has ended.  The recorded run must have ended first. *)

val sweep_pair :
  ?max_kernel_steps:int ->
  ?lo_dom:int ->
  build:(secret:int -> Nonint.run) ->
  secret1:int ->
  secret2:int ->
  unit ->
  sweep
(** Record [secret1]'s run, then sweep [secret2]'s against it.
    [max_kernel_steps] bounds each run's kernel steps (the fuzz oracle's
    runaway cap); default unbounded.  [lo_dom] as in {!record}. *)

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
