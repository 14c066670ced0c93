(** The standard verification scenario for the Sect. 5.2 proof stack.

    Two domains on one core: Hi runs a *random program derived from the
    secret* (so different secrets mean genuinely different
    load/store/branch/syscall behaviour, not just different operands),
    Lo a fixed observer that reads the clock, times loads, takes traps
    and branches across several of its slices.  Noninterference demands
    Lo's complete view be identical for every secret.

    The scenarios are {!System.spec} values: {!classic} is the one
    [tpro verify], [tpro prove] and the experiments run; {!compact} is
    the exhaustive checker's small variant.  The [build*] functions boot
    them. *)

open Tpro_kernel
open Tpro_secmodel

val slice : int
val pad : int

val machine_config : seed:int -> Tpro_hw.Machine.config
(** The scenario's machine: a small 4-colour LLC so the sampled programs
    can actually collide when colouring is off. *)

val machine_config_with :
  with_btb:bool -> seed:int -> Tpro_hw.Machine.config
(** {!machine_config} with an optional 64-entry BTB, so [tpro prove]
    covers every registered resource kind (the BTB is off in the
    standard scenario to keep the golden experiment outputs stable). *)

val hi_program : secret:int -> Program.t
(** Hi's secret-dependent behaviour (interrupt arming, kernel-path
    choice, page sweep, random tail). *)

val observer : Program.t
(** Lo's fixed observer program. *)

val classic :
  with_btb:bool -> cfg:Kernel.config -> seed:int -> secret:int -> System.spec
(** Hi (32 pages, IRQ 1, {!hi_program}) and the observer Lo (4 pages,
    {!observer}), both with {!slice} and {!pad}, on
    {!machine_config_with}.  [seed] selects the latency function;
    [secret] seeds Hi's program. *)

val compact :
  with_btb:bool -> cfg:Kernel.config -> seed:int -> hi_prog:Program.t ->
  System.spec
(** Compact variant for the exhaustive checker: Hi runs exactly
    [hi_prog]; Lo runs a short observer.  Small slices keep each
    execution cheap enough to enumerate hundreds of programs. *)

val build : cfg:Kernel.config -> seed:int -> secret:int -> Nonint.run
(** [System.build (classic ~with_btb:false ~cfg ~seed ~secret)]. *)

val build_with :
  with_btb:bool -> cfg:Kernel.config -> seed:int -> secret:int -> Nonint.run
(** [System.build (classic ~with_btb ~cfg ~seed ~secret)]. *)

val build_with_program_on :
  with_btb:bool ->
  cfg:Kernel.config ->
  seed:int ->
  hi_prog:Program.t ->
  Nonint.run
(** [System.build (compact ~with_btb ~cfg ~seed ~hi_prog)]. *)

val default_secrets : int list
val default_seeds : int list
