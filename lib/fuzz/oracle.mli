(** The three differential oracles, one verdict per generated scenario.

    Every check is pure with respect to the scenario: it builds fresh
    machines/kernels from the scenario's fields, so verdicts are
    reproducible and trials can fan out across domains. *)

open Tpro_hw
open Tpro_kernel

type verdict = Pass | Fail of string

val check : Scenario.t -> verdict
(** Dispatch on the scenario's oracle kind.  Exceptions raised by a
    trial (including {!Kernel.Uncovered_flushable}) are converted into
    [Fail] — a crash on a generated scenario is a finding. *)

val check_legacy : Scenario.t -> verdict
(** The Legacy oracle alone: a random trace on core 0, then every cached
    digest of core 0 and the shared state is compared with its
    from-scratch fold ({!Resource.audit}), before and after a core-local
    flush whose report coverage, cost and resulting state are checked
    too.  Exceptions propagate; {!check} converts them. *)

val check_topology : Topology.t -> verdict
(** The pairwise N-domain oracle: a deep unwinding sweep on the
    topology's focus pair, evidence-based noninterference checks for
    every other ordered (varied, observer) domain pair (sharing one
    baseline execution, so the whole check costs N+3 executions), a
    machine-level flushable audit across all cores, and a capacity probe
    over four secrets of the topology's capacity domain.  Failures name
    the pair and the refuted lemma: ["pair (hi=2, lo=0): lemma
    partition:llc refuted ..."].  Exceptions are converted to [Fail]. *)

val check_topology_pair : Topology.t -> vary:int -> obs:int -> verdict
(** One ordered pair, re-executed from scratch — the entry point for
    targeted pair checks (e.g. asserting that a planted miscolouring
    leaks between exactly one pair). *)

val lo_llc_digest : Machine.t -> Domain.t -> int64
(** Digest of exactly the LLC sets whose colour belongs to the given
    domain — the partition-confinement projection the noninterference
    oracle compares across secrets. *)
