(** Procedurally generated N-domain / M-core system topologies.

    A topology is the N-domain generalisation of {!Scenario}: a flat
    record of integers deterministically derived from [(seed, idx)],
    describing how many domains and cores the system has, which core
    hosts which domain, per-domain colour budgets, buffer sizes,
    workload mixes, time slices, per-core schedule orders, and an IPC
    graph.  Every domain's program carries the same shape — an IPC
    prefix, a secret-dependent tail, a workload body — and the *varied*
    domain is a parameter of {!build}, not a property of the topology:
    the same system is re-run varying each domain in turn, and
    noninterference is demanded pairwise from the viewpoint of every
    other domain.  The hardwired Hi/Lo pair of the original scenario is
    exactly the [N = 2, M = 1] instance.

    Baseline sharing: in {!build}, every non-varied domain evaluates its
    secret tail at [secret_a], so [build t ~vary:v ~secret:t.secret_a]
    is the *same global system* for every [v] — one baseline execution
    serves all N·(N−1) ordered pairs.

    Multi-core topologies use a TDMA-partitioned memory interconnect
    (shared-bus contention is the paper's explicit scope exclusion), and
    under SMT only even cores are populated — co-scheduling distrusting
    domains on hardware threads that share private state is
    fundamentally insecure. *)

open Tpro_kernel
open Tpro_secmodel

val format_version : int
(** Replay-file format version for topology files (2); {!Scenario}
    files are format 1. *)

type dom_spec = {
  d_core : int;      (** hosting core *)
  d_colours : int;   (** LLC colours granted (out of the 15 non-kernel) *)
  d_pages : int;     (** pages of private buffer *)
  d_workload : int;  (** workload-mix selector *)
  d_wseed : int;     (** per-domain behaviour seed *)
  d_slice : int;     (** time-slice length in cycles *)
}

type t = {
  seed : int;
  idx : int;
  mutant : Scenario.mutant;
  n_cores : int;
  smt : bool;
  btb : bool;
  lat_seed : int;
  secret_a : int;  (** every domain's baseline secret *)
  secret_b : int;  (** the varied domain's alternative secret *)
  bus_slot : int;  (** TDMA slot width; 0 = shared bus (single core) *)
  pad_extra : int;
  domains : dom_spec array;
  scheds : (int * int array) list;
      (** per populated core, the installed schedule (a permutation of
          that core's domains, exercising {!Kernel.set_schedule}) *)
  ipc : (int * int) list;
      (** IPC edges [src < dst]; the endpoint index is the edge's
          position in this list *)
  deep_hi : int;  (** focus pair: varied domain of the unwinding sweep *)
  deep_lo : int;  (** focus pair: observer domain of the unwinding sweep *)
  cap_dom : int;  (** varied domain of the capacity probe *)
  cap_obs : int;  (** observer domain of the capacity probe *)
  skip_idx : int; (** selects the skip-flush mutant's core and resource *)
  mis_src : int;  (** miscolour mutant: domain whose page is remapped *)
  mis_dst : int;  (** miscolour mutant: domain whose colour it steals *)
}

val n_domains : t -> int

val generate :
  seed:int ->
  ?mutant:Scenario.mutant ->
  ?max_domains:int ->
  ?max_cores:int ->
  int ->
  t
(** [generate ~seed idx] — deterministic: equal arguments give equal
    topologies.  [max_domains] (default 8, clamped to [2, 8]) and
    [max_cores] (default 4, clamped to [1, 4]) bound the drawn shape. *)

val skip_target : t -> string
(** Resource name the [Skip_flush] mutant silently skips (on a populated
    core). *)

val machine_config : t -> Tpro_hw.Machine.config
val kernel_config : t -> Kernel.config

val buf : int -> int
(** Domain [d]'s private buffer base address. *)

val max_steps : t -> int
(** Runaway cap for one execution of this topology (scales with N). *)

val program : t -> int -> secret:int -> Program.t
(** Domain [d]'s program: IPC prefix (secret-independent, deadlock-free
    by construction), secret tail, workload body, halt. *)

val build :
  ?machine:Tpro_hw.Machine.t -> t -> vary:int -> secret:int -> Nonint.run
(** Boot the topology's kernel with domain [vary]'s tail evaluated at
    [secret] and every other domain's at [secret_a].  All threads are
    cost-traced (the baseline run is shared across observer domains);
    the run's observers are every domain except [vary].  With
    [~machine] (built from {!machine_config}), the kernel boots on that
    machine, reset, and behaves exactly as on a fresh one. *)

val pairs : t -> (int * int) list
(** All ordered (varied, observer) domain pairs. *)

val size : t -> int
(** Rough weight for fuel accounting. *)

val to_string : t -> string
val of_string : string -> (t, Scenario.parse_error) result
(** Format-2 replay round-trip: [of_string (to_string t) = Ok t].
    Never raises on malformed input; a missing or alien [format] line,
    malformed [dom]/[sched]/[ipc] lines, and out-of-range domain or
    core indices are all typed {!Scenario.parse_error}s. *)

val save : string -> t -> unit
val load : string -> (t, Scenario.load_error) result

val pp : Format.formatter -> t -> unit
