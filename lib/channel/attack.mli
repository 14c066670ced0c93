(** Generic covert/side-channel experiment harness.

    A scenario packages a Trojan/spy pair: [build] constructs a booted
    kernel for one (latency seed, secret) pair and returns the spy thread;
    [decode] turns the spy's observations into an output symbol.  The
    harness samples the channel across secrets and latency seeds — the
    model is deterministic, so the seeds of the *unspecified latency
    function* play the role of environmental noise — and estimates the
    channel matrix and its Shannon capacity.

    A defence works iff the measured capacity collapses to ~0 bits. *)

open Tpro_kernel

type scenario = {
  name : string;
  symbols : int list;  (** the Trojan's input alphabet *)
  build : cfg:Kernel.config -> seed:int -> secret:int -> Kernel.t * Thread.t;
  decode : Event.obs list -> int;
  max_steps : int;
}

type outcome = {
  scenario_name : string;
  samples : (int * int) list;  (** (secret, decoded output) *)
  capacity_bits : float;
  distinct_outputs : int;
}

val run_trial : scenario -> cfg:Kernel.config -> seed:int -> secret:int -> int
(** One end-to-end transmission; returns the decoded output symbol. *)

val run_trial_timed :
  scenario -> cfg:Kernel.config -> seed:int -> secret:int -> int * int
(** Like {!run_trial} but also returns the wall-clock cycles the machine
    consumed (max over cores) — the cost of one channel use. *)

val measure :
  ?seeds:int list ->
  ?pool:Tpro_engine.Pool.t ->
  scenario ->
  cfg:Kernel.config ->
  unit ->
  outcome
(** Run every (symbol, seed) pair (default seeds 0..9), in order, or —
    given [pool] — fanned out across the pool's domains.  Every trial
    builds its own fresh kernel, so the outcome (samples in canonical
    grid order, capacity, distinct-output count) is bit-identical with
    and without a pool, whatever its size. *)

val matrix : outcome -> Matrix.t

val pp_outcome : Format.formatter -> outcome -> unit
