(** The composed time-protection theorem (after Buckley/Sison et al.).

    The verification story the paper argues for — and its follow-up
    realised — is compositional: one unwinding lemma per defence
    mechanism per resource, conjoined into a single top-level
    noninterference statement.  This module derives that structure
    {e from the machine's resource registry}:

    {ul
    {- every in-scope registered resource contributes one lemma, named
       by its obligation ([flush:<r>] / [partition:<r>]), whose verdict
       is read off recorded unwinding-sweep evidence;}
    {- every out-of-scope resource contributes a [scope:<r>] obligation
       that refutes the composed theorem unless explicitly
       acknowledged — registration is never silently ignored;}
    {- the kernel contributes the classic obligations (cases 1/2a/2b,
       top-level noninterference, invariants) as lemmas, refined by the
       view components they own (the boundary clock refutes the padding
       lemma, thread/observation divergence the noninterference one);}
    {- {!Exhaustive} small-model results attach as [exhaustive:<kind>]
       lemmas.}}

    Evidence collection ({!collect}) is separated from composition
    ({!derive}) so [tpro prove] can fan collection over the supervisor,
    checkpoint serialized evidence between processes, and compose at the
    end.  [tpro verify] collects in-process and composes through the same
    {!derive}; {!checks_of_evidence} reconstructs the classic {!Proofs}
    check list from the same evidence, which is the list [tpro verify]
    prints. *)

type pair_evidence = {
  pe_secrets : int * int;
  pe_diverged : (string * int) list;
      (** first Lo step each view component diverged at, discovery order *)
  pe_progress : int option;
  pe_boundaries : int;
}

type seed_evidence = {
  ev_seed : int;
  ev_checks : Proofs.check list;
      (** the five kernel obligations — cases 1/2a/2b, top-level
          noninterference, invariants — in that order *)
  ev_pairs : pair_evidence list;  (** one sweep per secret pair *)
}

type t = {
  lemmas : Lemma.t list;
  holds : bool;
      (** no lemma refuted {e and} no out-of-scope subject
          unacknowledged *)
  refuted : Lemma.t list;
  unacknowledged : string list;
  first_counter_example : (string * string) option;
      (** (lemma id, detail) of the first failure *)
}

val secrets_error : int list -> string option
(** [None] if the secrets hold at least two distinct values, otherwise
    the reason they cannot support a proof: every check compares each
    secret with the first, so with fewer than two distinct secrets no
    pair of runs differs in Hi's secret and every verdict is vacuous. *)

val collect :
  seed:int ->
  build:(secret:int -> Nonint.run) ->
  secrets:int list ->
  unit ->
  seed_evidence
(** One latency seed's worth of evidence, from one execution per secret
    (at most two runs live).  The first secret's run records Lo's views
    ({!Unwinding.record}) and carries the invariant checks; each other
    secret's run is swept against that record while it executes (one
    unwinding sweep per (first, other) pair) and then compared with the
    first run.  Cases 1/2a and top-level noninterference read those
    comparisons, case 2b the first run's kernel.

    @raise Invalid_argument if {!secrets_error} rejects [secrets]. *)

val checks_of_evidence : seed_evidence list -> Proofs.check list
(** The classic six-check list (cases 1/2a/2b, noninterference,
    invariants, unwinding), each wrapped [across_seeds], reconstructed
    from evidence. *)

val lemma_of_exhaustive :
  kind_label:string -> resources:string list -> Exhaustive.result -> Lemma.t

val compose : Lemma.t list -> t
(** Conjoin: holds iff nothing is refuted and nothing out-of-scope is
    unacknowledged; the first counter-example names the lemma. *)

type derivation = {
  theorem : t;
  checks : Proofs.check list;  (** {!checks_of_evidence} of the evidence *)
}

val derive :
  ?acknowledge:string list ->
  ?extra:Lemma.t list ->
  run:Nonint.run ->
  evidence:seed_evidence list ->
  unit ->
  derivation
(** The one composition from evidence.  Lemmas, in order: one per
    registry resource that [run] (a fresh run of the scenario) shows its
    observing core and the shared state — [flush:]/[partition:] verdicts
    read off the sweep evidence, out-of-scope resources as [scope:]
    lemmas, acknowledged iff named in [acknowledge] — then the five
    kernel lemmas, read off {!checks_of_evidence} and refined by the
    unwinding components they own, then [extra] (the exhaustive
    small-model lemmas, for [tpro prove]). *)

val evidence_to_string : seed_evidence -> string
val evidence_of_string : string -> (seed_evidence, string) result
(** Line-based serialisation for [tpro prove]'s checkpoints; free-text
    fields are {!Tpro_engine.Checkpoint.escape}d, so the blob survives a
    further escape onto a single checkpoint line. *)

val pp_verdict_table : Format.formatter -> Lemma.t list -> unit
val pp : Format.formatter -> t -> unit
