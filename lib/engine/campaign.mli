(** One batch → checkpoint → resume loop for every long campaign.

    Fuzz trials, topologies, theorem evidence and experiment tables are
    all the same shape: a fixed list of integer task keys, a pure
    [execute] per key, and a result that serialises to a string.  A
    campaign runs its keys in batches through {!Supervisor.run}; after
    every batch it snapshots each key that settled [Ok], with its
    encoded result, through {!Supervisor.checkpoint_save}.

    On resume only those keys are restored.  A task the supervisor
    settled as an error (after retries) was never recorded, so it runs
    again — the resumed report is the one an uninterrupted run prints.

    The payload inside the checkpoint frame is deliberately plain text:
    {v
    tpro-campaign 1
    kind <kind>
    <param> <escaped value>      (one line per pinned parameter)
    task <key> <escaped result>  (one line per settled key, in key order)
    v}
    A checkpoint whose frame is damaged, whose header differs from the
    campaign's (another kind, another seed, a payload written before
    this format), or whose task lines do not parse, name an unknown key
    or repeat one, is rejected with a note and the campaign starts
    from scratch.  Resuming never raises and never misreads. *)

type 'r codec = {
  encode : 'r -> string;
  decode : string -> ('r, string) result;
      (** must reject what [encode] never produces, without raising *)
}

type 'r t = {
  kind : string;  (** ["fuzz"], ["topo"], ["prove"], ["exp"] *)
  params : (string * string) list;
      (** what a checkpoint must match to be resumed (seed, mutant, …) *)
  keys : int list;  (** distinct task keys, in report order *)
  execute : fuel:Supervisor.Fuel.t -> int -> 'r;
  codec : 'r codec;
  batch : int;  (** keys per {!Supervisor.run} call; a snapshot follows each *)
}

type 'r outcome = {
  results : (int * ('r, Supervisor.task_error) result) list;
      (** one per key, in [keys] order *)
  resumed : int;  (** keys restored from the checkpoint; 0 = fresh *)
  notes : string list;  (** resume/restart decisions, for the operator *)
}

val run :
  sup:Supervisor.t -> ?checkpoint:string -> ?resume:bool -> 'r t -> 'r outcome
(** With [?checkpoint:path], snapshot after every batch.  With
    [~resume:true], first restore what the snapshot at [path] holds.
    Results never depend on the batch size, the pool width or how many
    times the process died in between. *)
