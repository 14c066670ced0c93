(** Trial fan-out, mutant-kill search and counterexample shrinking.

    Trials are independent (each builds fresh kernels), so they fan out
    over a {!Tpro_engine.Pool} with bit-identical results to the
    sequential path.  Every failure is minimised with {!Shrink.minimise}
    before being reported, ready to be persisted as a replay file. *)

type failure = {
  scenario : Scenario.t;  (** the originally failing scenario *)
  message : string;
  shrunk : Scenario.t;  (** minimised, still failing *)
  shrunk_message : string;
}

val run :
  ?pool:Tpro_engine.Pool.t ->
  ?mutant:Scenario.mutant ->
  seed:int ->
  trials:int ->
  unit ->
  failure list
(** Run trials [0 .. trials-1] of [seed]; shrink and report every
    failure.  Empty list = zero oracle violations. *)

val first_failure :
  ?pool:Tpro_engine.Pool.t ->
  ?mutant:Scenario.mutant ->
  seed:int ->
  budget:int ->
  unit ->
  (int * failure) option
(** Scan trials in order until one fails; [Some (trials_used, failure)]
    with [trials_used] the failing trial's 1-based position.  The
    mutant-kill validation demands [Some] within its budget. *)

val verdict_codec : Oracle.verdict Tpro_engine.Campaign.codec
(** ["pass"] or ["fail <escaped message>"]: how a trial's verdict is
    checkpointed, and the payload a serve job returns for it. *)

val fuzz_task :
  fuel:Tpro_engine.Supervisor.Fuel.t ->
  seed:int ->
  mutant:Scenario.mutant ->
  int ->
  Oracle.verdict
(** One campaign trial: generate scenario [idx] of [seed], charge its
    {!Scenario.size} to [fuel], run {!Oracle.check}. *)

val topo_task :
  fuel:Tpro_engine.Supervisor.Fuel.t ->
  seed:int ->
  mutant:Scenario.mutant ->
  max_domains:int ->
  max_cores:int ->
  int ->
  Oracle.verdict
(** One topology trial, charged {!Topology.size}. *)

type task_failure = {
  trial : int;
  error : Tpro_engine.Supervisor.task_error;
}
(** A trial whose task the supervisor had to settle as an error (after
    retries): its verdict is unknown, which the campaign reports
    rather than hides. *)

type campaign = {
  failures : failure list;  (** shrunk oracle violations, trial order *)
  trials : int;
  resumed_from : int;  (** trials restored from a checkpoint; 0 = fresh *)
  task_failures : task_failure list;
  notes : string list;  (** resume/restart decisions, for the operator *)
}

val campaign :
  sup:Tpro_engine.Supervisor.t ->
  ?mutant:Scenario.mutant ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:bool ->
  seed:int ->
  trials:int ->
  unit ->
  campaign
(** Supervised, crash-safe campaign over {!Tpro_engine.Campaign}: one
    task per trial, [checkpoint_every] (default 200) trials per batch,
    a snapshot of every settled verdict after each batch when
    [?checkpoint] is given.  With [~resume:true] the snapshot is
    restored first; a trial lost to a supervised failure was never
    recorded, so it runs again.  The final {!campaign} value —
    violations, shrunk counterexamples, lost trials — is bit-identical
    to an uninterrupted run's.  A damaged checkpoint, or one written for
    another seed or mutant, is rejected with a note and the campaign
    restarts from scratch. *)

val pp_failure : Format.formatter -> failure -> unit

(** {2 Topology campaigns}

    The N-domain/M-core generalisation: each trial generates a
    {!Topology} and runs {!Oracle.check_topology}'s pairwise sweep over
    it.  Failures are not shrunk — a topology's fields are deeply
    cross-dependent (schedules are permutations of per-core residents,
    IPC endpoints are edge-list positions, the focus/capacity/miscolour
    domains index the domain array), so field-local shrinking almost
    never preserves well-formedness, and the [(seed, idx)] pair plus the
    saved format-2 replay file is already a complete reproducer. *)

type topo_failure = { topology : Topology.t; topo_message : string }

val topo_run :
  ?pool:Tpro_engine.Pool.t ->
  ?mutant:Scenario.mutant ->
  ?max_domains:int ->
  ?max_cores:int ->
  seed:int ->
  trials:int ->
  unit ->
  topo_failure list
(** Trials [0 .. trials-1]; empty list = zero pairwise violations. *)

val topo_first_failure :
  ?pool:Tpro_engine.Pool.t ->
  ?mutant:Scenario.mutant ->
  ?max_domains:int ->
  ?max_cores:int ->
  seed:int ->
  budget:int ->
  unit ->
  (int * topo_failure) option
(** As {!first_failure}, for topologies. *)

type topo_campaign = {
  topo_failures : topo_failure list;  (** violations, trial order *)
  topo_trials : int;
  topo_resumed_from : int;
  topo_task_failures : task_failure list;
  topo_notes : string list;
}

val topo_campaign :
  sup:Tpro_engine.Supervisor.t ->
  ?mutant:Scenario.mutant ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:bool ->
  ?max_domains:int ->
  ?max_cores:int ->
  seed:int ->
  trials:int ->
  unit ->
  topo_campaign
(** As {!campaign}, for topologies: 50 trials per batch by default (a
    topology trial is roughly an order of magnitude heavier than a
    scenario trial), and a checkpoint must also match the
    [max_domains]/[max_cores] bounds to be resumed. *)

val pp_topo_failure : Format.formatter -> topo_failure -> unit
