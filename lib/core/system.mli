(** One system description.

    The paper's theorem (Sect. 5) is a statement about a system: domains
    with their cores, colours, slices, pad attributes, memory, threads
    and interrupts, and per-core schedules, over one abstract machine.
    A {!spec} describes such a system as one value and {!build} boots
    it.  The standard scenario ({!Ni_scenario}), the three-domain
    mutual-NI system ({!Mutual}), fuzzed scenarios and topologies are
    all specs. *)

open Tpro_kernel
open Tpro_secmodel

type domain = {
  core : int option;       (** hosting core ([None] = kernel default) *)
  n_colours : int option;  (** colour budget ([None] = kernel default) *)
  slice : int;
  pad_cycles : int;
  regions : (int * int) list;  (** [(vbase, pages)] to back, in order *)
  programs : Program.t list;   (** threads to spawn, in order *)
  irqs : int list;             (** IRQ lines this domain owns *)
  observer : bool;  (** include this domain's threads in the run's observers *)
}

type spec = {
  machine : Tpro_hw.Machine.config;
  cfg : Kernel.config;
  n_endpoints : int option;
  n_irqs : int option;
  schedules : (int * int array) list;
      (** [(core, order)] replacing that core's creation-order schedule *)
  domains : domain list;
  tweak : (Kernel.t -> unit) option;
      (** runs after boot-time configuration, before any thread is
          spawned — the hook used e.g. to plant a miscoloured frame *)
}

val domain :
  ?core:int ->
  ?n_colours:int ->
  ?regions:(int * int) list ->
  ?programs:Program.t list ->
  ?irqs:int list ->
  ?observer:bool ->
  slice:int ->
  pad_cycles:int ->
  unit ->
  domain

val spec :
  ?n_endpoints:int ->
  ?n_irqs:int ->
  ?schedules:(int * int array) list ->
  ?tweak:(Kernel.t -> unit) ->
  machine:Tpro_hw.Machine.config ->
  cfg:Kernel.config ->
  domain list ->
  spec

val build : ?machine:Tpro_hw.Machine.t -> spec -> Nonint.run
(** Boot a kernel from [spec], phase by phase: create every domain (in
    list order — colour and clone assignment follow creation order), map
    every region, install IRQ owners then schedules, run [tweak], then
    spawn all programs domain-major.  The run's observers are the
    threads of the [observer]-flagged domains.  With [~machine], the
    kernel boots on that machine, reset, instead of a fresh one (see
    {!Kernel.create}); its configuration must be [spec]'s.  Raises
    [Invalid_argument] on an invalid schedule (see
    {!Kernel.set_schedule}). *)
