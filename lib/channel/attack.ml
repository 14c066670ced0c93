open Tpro_kernel

type scenario = {
  name : string;
  symbols : int list;
  build : cfg:Kernel.config -> seed:int -> secret:int -> Kernel.t * Thread.t;
  decode : Event.obs list -> int;
  max_steps : int;
}

type outcome = {
  scenario_name : string;
  samples : (int * int) list;
  capacity_bits : float;
  distinct_outputs : int;
}

let machine ~seed =
  {
    Tpro_hw.Machine.default_config with
    lat = Tpro_hw.Latency.with_seed Tpro_hw.Latency.default seed;
  }

let run_trial scenario ~cfg ~seed ~secret =
  let kernel, spy = scenario.build ~cfg ~seed ~secret in
  Kernel.run ~max_steps:scenario.max_steps kernel;
  scenario.decode (Thread.observations spy)

let machine_cycles kernel =
  let m = Kernel.machine kernel in
  let worst = ref 0 in
  for core = 0 to Tpro_hw.Machine.n_cores m - 1 do
    worst := max !worst (Tpro_hw.Machine.now m ~core)
  done;
  !worst

let run_trial_timed scenario ~cfg ~seed ~secret =
  let kernel, spy = scenario.build ~cfg ~seed ~secret in
  Kernel.run ~max_steps:scenario.max_steps kernel;
  (scenario.decode (Thread.observations spy), machine_cycles kernel)

let default_seeds = List.init 10 (fun i -> i)

(* Count distinct outputs in one pass over the samples we already hold —
   no rebuilt list, no sort. *)
let distinct_outputs_of samples =
  let seen = Hashtbl.create 16 in
  List.iter (fun (_, out) -> Hashtbl.replace seen out ()) samples;
  Hashtbl.length seen

let outcome_of_samples scenario samples =
  {
    scenario_name = scenario.name;
    samples;
    capacity_bits = Capacity.of_samples samples;
    distinct_outputs = distinct_outputs_of samples;
  }

(* The (secret x seed) grid in the canonical order: secrets outer, seeds
   inner.  Both maps return results in grid order, which is what makes a
   pooled outcome bit-identical to the sequential one. *)
let trial_grid scenario ~seeds =
  List.concat_map
    (fun secret -> List.map (fun seed -> (secret, seed)) seeds)
    scenario.symbols

let measure ?(seeds = default_seeds) ?pool scenario ~cfg () =
  let map =
    match pool with Some p -> Tpro_engine.Pool.map p | None -> List.map
  in
  outcome_of_samples scenario
    (map
       (fun (secret, seed) -> (secret, run_trial scenario ~cfg ~seed ~secret))
       (trial_grid scenario ~seeds))

let matrix outcome = Matrix.of_samples outcome.samples

let pp_outcome ppf o =
  Format.fprintf ppf "%-28s capacity %.3f bits (%d samples, %d distinct outputs)"
    o.scenario_name o.capacity_bits (List.length o.samples) o.distinct_outputs
