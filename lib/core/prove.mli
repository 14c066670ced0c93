(** Supervised derivation of the composed time-protection theorem — the
    engine behind [tpro prove].

    Evidence collection (one task per preset x latency seed, each a
    {!Tpro_secmodel.Theorem.collect}) fans out over the supervisor with
    crash-safe checkpoint/resume; composition — per-resource unwinding
    lemmas, kernel lemmas, scope acknowledgements and the per-kind
    exhaustive small-model lemmas — happens at the end.  Tasks are pure
    functions of (preset, seed, secrets), so a resumed run's theorem is
    bit-identical to an uninterrupted one's. *)

open Tpro_kernel
open Tpro_secmodel

type report = {
  preset : string;
  theorem : Theorem.t;
  lost : (int * string) list;
      (** (task index, error) for evidence lost to supervised failures *)
}

type outcome = {
  reports : report list;
      (** one per preset that has evidence, in input order *)
  unproved : (string * (int * string) list) list;
      (** presets whose every evidence task was lost, in input order,
          each with its lost tasks (as in a report's [lost]); no theorem
          is composed for them, since with no evidence every lemma
          would hold vacuously *)
  notes : string list;  (** resume/checkpoint notes for stderr *)
  resumed_tasks : int;
}

val evidence_task :
  cfg:Kernel.config -> seed:int -> secrets:int list -> Theorem.seed_evidence
(** One evidence task: {!Tpro_secmodel.Theorem.collect} for [cfg] at
    latency seed [seed] on the proving scenario (the standard one with
    the BTB enabled). *)

val evidence_codec : Theorem.seed_evidence Tpro_engine.Campaign.codec
(** {!Tpro_secmodel.Theorem.evidence_to_string} and its inverse. *)

val run :
  sup:Tpro_engine.Supervisor.t ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:bool ->
  ?acknowledge:string list ->
  ?exhaustive:bool ->
  ?seeds:int list ->
  ?secrets:int list ->
  presets:(string * Kernel.config) list ->
  unit ->
  outcome
(** Evidence collection is a {!Tpro_engine.Campaign} of kind [prove],
    [checkpoint_every] tasks per batch (default 1).  Defaults:
    seeds/secrets as in {!Ni_scenario}, exhaustive small-model lemmas
    on.  [acknowledge] names out-of-scope resources whose [scope:]
    lemmas are accepted; any other out-of-scope registration refutes the
    composed theorem. *)

val pp_report : Format.formatter -> report -> unit

val to_json : report list -> string
(** The lemma-verdict artifact ([tpro prove --json]): one object per
    preset with the full per-lemma verdict table. *)
