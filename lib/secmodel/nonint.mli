(** Two-run noninterference checking (Sect. 5.2).

    Time protection is phrased like storage-channel freedom: fix the Lo
    domain's programs, vary only the Hi domain's secret, and require that
    everything Lo can observe — its observation trace *and* the cycle cost
    of each of its execution steps — is identical across runs.

    [execute] runs a scenario for one secret; [compare_runs] compares two
    such runs and reports every divergence, separated into the paper's
    proof cases:
    - observation divergence: the top-level noninterference statement;
    - user-step cost divergence: Case 1 (ordinary instructions);
    - trap cost divergence: Case 2a (system calls, exceptions). *)

open Tpro_kernel

type run = {
  kernel : Kernel.t;
  observers : Thread.t list;  (** the Lo threads whose view matters *)
}

type divergence_report = {
  obs : (int * Observation.divergence) option;
      (** (observer index, divergence) in observation traces *)
  user_costs : (int * int * int * int) option;
      (** (observer, step index, left cycles, right cycles) over Case-1
          steps *)
  trap_costs : (int * int * int * int) option;
      (** same over Case-2a steps *)
}

val secure : divergence_report -> bool

val view_from : run -> dom:int -> run
(** The same run seen from one domain: observers restricted to [dom]'s
    threads (in domain thread order).  [compare_runs] over two such views
    is the (vary, observer) pairwise noninterference check of an N-domain
    topology — the comparison itself is not Hi/Lo specific. *)

val prepare : (secret:int -> run) -> int -> run
(** Build the scenario for one secret and enable cost tracing on the
    observers, ready for [Kernel.run]. *)

val execute : ?max_steps:int -> (secret:int -> run) -> int -> run
(** {!prepare}, then run to quiescence (at most [max_steps] kernel
    steps, default 1,000,000). *)

val compare_runs : run -> run -> divergence_report
(** Compare two already-executed runs: observation traces plus Case-1 and
    Case-2a cost traces of the observers.  The runs stay the caller's, so
    one run can be compared with several others, and callers that need
    the final kernels as well (e.g. to compare machine digests) still
    have them. *)

val compare_threads : Thread.t list -> Thread.t list -> divergence_report
(** [compare_runs] on two observer lists: what it reads of a run.  The
    threads' traces outlive their kernel, so this compares runs whose
    machine has since been reset for another run. *)

val pp_report : Format.formatter -> divergence_report -> unit
