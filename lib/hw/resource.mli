(** First-class microarchitectural resources: the paper's Sect. 5
    taxonomy as an interface.

    The paper's key modelling requirement is that every piece of
    microarchitectural state that influences execution time is
    delineated as *partitionable* (concurrently shared, spatially
    divisible — colours, reservations) or *flushable* (time-multiplexed,
    reset on domain switch); state that is neither must be explicitly out
    of scope (the stateless interconnect).  Before this module the
    taxonomy lived twice: implicitly in the hand-enumerated fields of
    {!Machine} and explicitly as a disconnected enum in the security
    model.  A resource packages one piece of state with its name,
    classification, digest and flush behind one first-class-module
    signature; {!Machine} carries a *registry* of them, and digesting,
    kernel flushing and the taxonomy audit are all folds over that
    registry — one source of truth the layers cannot drift from. *)

type classification =
  | Flushable
      (** core-private, time-multiplexed: reset on domain switch *)
  | Partitionable
      (** concurrently shared, spatially divisible: partition by colour
          or reservation *)
  | Neither
      (** stateless bandwidth-shared: no OS defence exists (Sect. 2) *)

type kind =
  | Cache_kind
  | Tlb_kind
  | Predictor_kind
  | Prefetcher_kind
  | Interconnect_kind
  | Other_kind of string
      (** Structural family of the resource — orthogonal to
          [classification].  The exhaustive small-model checker picks a
          per-kind universe of adversary programs from this (loads for
          caches, mapping churn for TLBs, branches for predictors), so a
          newly registered resource of a known kind inherits an
          exhaustive obligation for free. *)

val kind_label : kind -> string

type view = {
  lo_colours : int list;  (** the page colours Lo's domain owns *)
  page_bits : int;
}
(** Context for a Lo-view projection: everything a resource needs to
    know about the observing domain to project the slice of its state
    that Lo may legitimately see. *)

type obligation =
  | Flush_equal
      (** flushable and in scope: the post-switch Lo view of this
          resource must be equal across Hi's secrets at every Lo
          boundary *)
  | Partition_equal
      (** partitionable and in scope: the Lo-coloured slice must be
          equal across secrets at every Lo boundary *)
  | Out_of_scope
      (** no defence claimed: the composed theorem must carry an
          explicit acknowledgement, never a silent pass *)

type flush_report = {
  dirty_writebacks : int;
      (** dirty lines written back — the history-dependent flush-latency
          component that motivates padding (Sect. 4.2) *)
  extra_cycles : int;
      (** any fixed latency this resource's reset adds beyond the
          machine-level [flush_base] and per-write-back cost *)
}

val no_flush : flush_report
(** [{ dirty_writebacks = 0; extra_cycles = 0 }] *)

(** The resource signature.  State is captured in the module's closure,
    so a value of type [t] is one live structure of one machine. *)
module type S = sig
  val name : string

  val classification : classification

  val kind : kind

  val in_scope : bool
  (** Whether time protection claims to defend this resource.  Must be
      declared, not derived from [classification]: the aISA audit checks
      that a [Neither] resource is never claimed in scope. *)

  val defence : string
  (** Which kernel mechanism handles it (documentation for the audit). *)

  val present : bool
  (** [false] for placeholder slots ({!absent}) that keep the digest
      tree's shape but correspond to no hardware. *)

  val colours : int option
  (** Partition metadata: page colours exposed, for partitionable
      resources. *)

  val digest : unit -> int64
  (** May be served from an incrementally-maintained cache; must equal
      [digest_fold ()] at every instant. *)

  val digest_fold : unit -> int64
  (** The same digest recomputed from scratch (no memoisation) — ground
      truth for {!audit}. *)

  val lo_project : view -> int64
  (** Digest of the slice of this resource's state the observing (Lo)
      domain may legitimately see.  For a flushable resource this is the
      whole digest (it is reset before Lo runs); for a partitioned cache
      it is the chained digest of Lo's coloured sets.  The unwinding
      relation compares exactly these projections across secrets. *)

  val flush : unit -> flush_report
end

type t = (module S)

val name : t -> string
val classification : t -> classification
val kind : t -> kind
val in_scope : t -> bool
val defence : t -> string
val present : t -> bool
val colours : t -> int option

val lo_project : t -> view -> int64

val obligation : t -> obligation
(** The unwinding obligation this resource's taxonomy entry implies.
    Derived, never declared: in-scope [Flushable] ⇒ [Flush_equal],
    in-scope [Partitionable] ⇒ [Partition_equal], [Neither] or
    out-of-scope ⇒ [Out_of_scope]. *)

val component_id : name:string -> obligation -> string option
(** ["flush:<name>"] / ["partition:<name>"]; [None] for out-of-scope.
    The single naming convention shared by the unwinding view, the lemma
    table and the fuzz oracle. *)

val lemma_component : t -> string option
(** [component_id ~name:(name r) (obligation r)]. *)

val digest : t -> int64
(** Reads the resource's (possibly cached) digest. *)

val digest_fold : t -> int64
(** The from-scratch re-fold, bypassing any incremental cache. *)

val flush : t -> flush_report
val flushable : t -> bool

type divergence = { resource : string; cached : int64; fold : int64 }

val audit : t -> divergence option
(** [Some] when the resource's cached {!digest} differs from its
    {!digest_fold}: an incrementally-maintained digest missed a cache
    invalidation, breaking the "digest is a pure function of state"
    invariant.  Like {!digest} it may refresh the memo, but it changes
    no state a digest covers. *)

val default_defence : classification -> string

val make :
  name:string ->
  classification:classification ->
  ?kind:kind ->
  ?in_scope:bool ->
  ?defence:string ->
  ?colours:int ->
  ?digest_fold:(unit -> int64) ->
  ?lo_project:(view -> int64) ->
  digest:(unit -> int64) ->
  flush:(unit -> flush_report) ->
  unit ->
  t
(** General constructor (used by the adapters below, by {!Machine} for
    built-in structures, and by tests/extensions for ad-hoc resources).
    [kind] defaults to [Other_kind name]; [in_scope] defaults to
    [classification <> Neither]; [defence] defaults to
    {!default_defence}; [digest_fold] defaults to [digest] (correct for
    resources that do not cache their digest); [lo_project] defaults to
    the whole digest (correct for flushable resources). *)

val absent : name:string -> placeholder_digest:int64 -> t
(** A slot for a structure this configuration omits: digests to the
    fixed placeholder, flushes to nothing, [present = false]. *)

(** {1 Adapters} *)

val of_cache :
  name:string ->
  ?classification:classification ->
  ?defence:string ->
  ?colours:int ->
  Cache.t ->
  t
(** Default classification [Flushable] (an L1); the machine passes
    [~classification:Partitionable ~colours] for the LLC. *)

val of_tlb : ?name:string -> Tlb.t -> t
val of_bpred : ?name:string -> Bpred.t -> t
val of_prefetch : ?name:string -> Prefetch.t -> t
val of_btb : ?name:string -> Btb.t -> t

val of_interconnect : ?name:string -> Interconnect.t -> t
(** Classified [Neither] and declared out of scope — the paper's
    explicit scope limit. *)

(** {1 Registry folds}

    [Rng.combine] is not associative, so the fold shape {e is} the
    digest.  A group digests as the right-associated chain
    [combine d1 (combine d2 (... dn))] and a registry as the same chain
    over its group digests; {!Machine} arranges its registry groups so
    these folds reproduce the pre-registry hand-written digests
    bit-identically. *)

val digest_group : t list -> int64
val digest_registry : t list list -> int64

val digest_group_fold : t list -> int64
val digest_registry_fold : t list list -> int64
(** The same folds with every resource re-folded from scratch — the
    differential ground truth for {!digest_group}/{!digest_registry}. *)

val pp_classification : Format.formatter -> classification -> unit
val pp : Format.formatter -> t -> unit
