(** Fault-tolerant campaign supervision over {!Pool}.

    {!Pool.map} deterministically re-raises the first task failure —
    correct for the bit-identical experiment tables, fatal for a 10k
    trial campaign where one bad task should cost one result, not the
    run.  The supervisor settles {e every} task into a typed
    [('b, task_error) result]:

    - {b Retry}: a raising task is re-executed up to [retries] more
      times.  Tasks are pure functions of their input, so a retried
      task that succeeds returns a value bit-identical to a run that
      never faulted — retries are invisible in campaign output and
      visible in the {!summary}.
    - {b Watchdog}: each attempt gets a fresh {!Fuel.t}; a task that
      burns past the budget is cut off with {!Fuel_exhausted} (no
      retry — a deterministic runaway would only spin again).
    - {b Duplicate rejection}: task keys are tracked per fan-out call;
      a key submitted twice runs once, and every later occurrence
      settles as {!Duplicate_submission} — the guard a checkpoint
      resume path relies on.
    - {b Degradation}: if the worker domains cannot be spawned, the
      supervisor runs every task sequentially in the calling domain and
      flags [degraded] in the summary with a warning — never an abort.

    The supervisor also proves its own teeth: {!fault} injects each
    failure mode (task raises once/always, task hangs past the fuel
    budget, duplicate submission, torn checkpoint write) so tests can
    demonstrate that no fault is silently absorbed. *)

module Fuel : sig
  exception Out_of_fuel of { budget : int }

  type t

  val make : int option -> t
  (** [make (Some budget)] — a gauge that raises {!Out_of_fuel} once
      more than [budget] units burn; [make None] only counts. *)

  val burn : ?amount:int -> t -> unit
  val used : t -> int
end

type task_error =
  | Task_raised of { key : int; attempts : int; message : string }
      (** the task raised on every one of [attempts] executions *)
  | Fuel_exhausted of { key : int; budget : int }
      (** the watchdog cut off a runaway task *)
  | Duplicate_submission of { key : int }
      (** this key already ran in this fan-out call *)

val task_error_to_string : task_error -> string

type fault =
  | No_fault
  | Raise_once of { key : int }
      (** task [key] raises on its first execution only: a retry
          recovers it *)
  | Raise_always of { key : int }
      (** task [key] raises on every attempt: retries exhaust *)
  | Hang of { key : int }
      (** task [key] burns fuel forever: the watchdog must trip *)
  | Duplicate of { key : int }
      (** task [key] is enqueued twice, as a buggy resume would *)
  | Torn_checkpoint
      (** {!checkpoint_save} writes a file whose payload is cut
          mid-stream *)
  | Spawn_failure  (** worker-domain creation fails: must degrade *)

exception Injected of int
(** What the raise faults throw (carries the task key). *)

type summary = {
  total : int;  (** tasks settled, including rejected duplicates *)
  ok : int;
  retried : int;  (** subset of [ok] that needed more than one attempt *)
  failed : int;
  duplicates : int;
  degraded : bool;
  warnings : string list;  (** one line per absorbed fault, in order *)
}

type t

val create :
  ?domains:int ->
  ?retries:int ->
  ?backoff:float * float ->
  ?fuel:int ->
  ?fault:fault ->
  unit ->
  t
(** [create ~domains ~retries ~fuel ()] — [domains] defaults to the
    calibrated {!Pool.recommended} (values [<= 1] mean sequential; a
    calibrated-sequential host is recorded as a warning in the
    summary); [retries] (default 1) is the number of {e additional}
    attempts after a raise; [backoff] is an optional
    [(base_seconds, cap_seconds)] pair — before retry [n] the worker
    sleeps {!backoff_delay}[ ~base ~cap n], a deterministic capped
    exponential, so a flapping dependency is not hammered and retried
    results stay bit-identical to an unbacked-off run (tasks are pure;
    the delay only spaces attempts out); [fuel] (default unlimited) is
    the per-attempt watchdog budget.  Worker-spawn failure degrades to
    sequential execution instead of raising. *)

val backoff_delay : base:float -> cap:float -> int -> float
(** [backoff_delay ~base ~cap attempt] = [min cap (base * 2^(attempt-1))]
    seconds — the pure schedule behind [?backoff], exposed so tests
    can pin it. *)

val with_supervisor :
  ?domains:int ->
  ?retries:int ->
  ?backoff:float * float ->
  ?fuel:int ->
  ?fault:fault ->
  (t -> 'a) ->
  'a
(** Run [f] over a fresh supervisor and shut it down afterwards. *)

val run :
  t ->
  ?label:string ->
  key:('a -> int) ->
  (fuel:Fuel.t -> 'a -> 'b) ->
  'a list ->
  ('b, task_error) result list
(** [run t ~key f xs] fans [xs] out over the supervised pool (or runs
    sequentially when degraded / sequential), returning one settled
    result per input element, in input order.  [key] must be injective
    over the call's genuinely distinct tasks — equal keys are treated
    as accidental resubmission and every occurrence after the first is
    rejected.  Tasks go through {!Pool.map}.  [label] is accepted and
    ignored: the benchmark harness in [tprobench/] still passes one.
    Never raises on task failure. *)

val summary : t -> summary
(** Cumulative over every {!run} call on this supervisor. *)

val pp_summary : Format.formatter -> summary -> unit

val pool : t -> Pool.t option
(** The underlying pool — [None] when sequential or degraded.  Nested
    fan-out (a supervised task that itself maps over the pool) reuses
    this. *)

val degraded : t -> bool
val fault : t -> fault
val shutdown : t -> unit

val checkpoint_save : t -> path:string -> string -> unit
(** {!Checkpoint.save} routed through the supervisor so
    {!Torn_checkpoint} can corrupt it on demand. *)
