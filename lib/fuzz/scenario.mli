(** Generated fuzz scenarios.

    A scenario is a small record of integers and flags, deterministically
    derived from [(seed, idx)] by {!generate}.  Everything the oracles
    execute — machine config, kernel config, Hi/Lo programs, channel
    choice — is rebuilt on demand from those fields.  This makes the
    three operations the harness needs trivial: {e replay} (serialise the
    fields, one [key value] pair per line), {e shrinking} (reduce a field
    and regenerate), and {e mutation testing} (a [mutant] field weakens
    exactly one defence mechanism when the workload is built). *)

open Tpro_hw
open Tpro_kernel
open Tpro_secmodel

type oracle =
  | Nonint
      (** vary only the Hi secret under [full]: Lo's observations, cost
          traces and Lo-visible machine digests must be bit-identical *)
  | Capacity
      (** a catalogued channel must measure 0 bits under [full] and, if
          known-leaky, more than 0 under [none] *)
  | Legacy
      (** registry-fold digests and flush costs must agree with a
          straight-line reimplementation *)

type mutant =
  | No_mutant
  | Skip_flush
      (** the machine silently skips flushing one core-local resource *)
  | Drop_padding  (** the kernel switches without padding *)
  | Miscolour  (** one Hi page is mapped to a Lo-coloured frame *)

type t = {
  seed : int;
  idx : int;
  oracle : oracle;
  mutant : mutant;
  preset : int;  (** index into {!machine_presets} *)
  btb : bool;
  lat_seed : int;  (** selects the unspecified latency function *)
  secret_a : int;
  secret_b : int;
  slice : int;
  pad_extra : int;  (** slack added on top of the WCET-recommended pad *)
  hi_seed : int;
  hi_sweep : int;
  hi_len : int;
  lo_phases : int;
  lo_lines : int;
  channel : int;  (** index into [Catalog.all] (capacity oracle) *)
  cap_seed : int;
  trace_steps : int;  (** legacy-oracle trace length *)
}

val machine_presets : (string * Machine.config) list
(** The six structural machine variants the fuzzer draws from. *)

val preset_name : t -> string
val skip_target : t -> string
(** Resource name the [Skip_flush] mutant silently skips. *)

val machine_config : t -> Machine.config
(** Preset + latency seed + optional BTB + the mutant's machine fault. *)

val kernel_config : t -> Kernel.config
(** [Presets.full], weakened by the mutant where applicable. *)

val hi_buf : int
val lo_buf : int
val hi_pages : int
val max_steps : int

val hi_program : t -> secret:int -> Program.t
(** Hi's secret-dependent workload: interrupt arming at a
    secret-dependent time, a secret-dependent kernel-path choice, a
    secret-scaled page sweep and a random tail derived from
    [hi_seed lxor secret]. *)

val lo_program : t -> Program.t
(** Lo's observer: clock reads, timed probes, traps, branches and filler
    per phase. *)

val miscolour_remap : Kernel.t -> victim:int -> thief:int -> vbase:int -> unit
(** Remap [victim]'s page at [vbase] onto a frame of [thief]'s first
    colour — the allocator bug that page colouring exists to rule out.
    Used as a {!Time_protection.System.spec} tweak by the
    [Miscolour] mutant here and by [Topology]'s pair-targeted variant. *)

val build_ni : t -> secret:int -> Nonint.run
(** Boot a kernel for the scenario (applying the mutant) and spawn the
    Hi/Lo pair, a two-domain {!Time_protection.System.spec}. *)

val generate : seed:int -> ?mutant:mutant -> int -> t
(** [generate ~seed idx] — deterministic: equal arguments give equal
    scenarios. *)

val size : t -> int
(** Rough scenario weight; shrinking never increases it. *)

val oracle_to_string : oracle -> string
val mutant_to_string : mutant -> string
val mutant_of_string : string -> mutant option

type parse_error = { line : int; reason : string }
(** A malformed replay file: the offending 1-based line (0 when the
    problem is a missing key, a property of the whole file) and why it
    was rejected — missing value, non-integer, unknown key, duplicate
    key, unknown oracle/mutant name. *)

val pp_parse_error : Format.formatter -> parse_error -> unit

type load_error = Io of string | Parse of parse_error
(** Loading separates "the file cannot be read" from "the file does not
    parse" so the CLI can map the latter to its usage-error exit
    code. *)

val load_error_to_string : load_error -> string

val format_version : int
(** Replay-file format version written by {!to_string} (currently 1).
    Files with no [format] line — written before the key existed — are
    read as version 1; a different version is a {!parse_error} naming
    both versions. *)

val to_string : t -> string
val of_string : string -> (t, parse_error) result
(** Replay-file round-trip: [of_string (to_string s) = Ok s].  Never
    raises on malformed input — every defect is a typed
    {!parse_error}. *)

val save : string -> t -> unit
val load : string -> (t, load_error) result

val pp : Format.formatter -> t -> unit
