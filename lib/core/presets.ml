open Tpro_kernel

let none = Kernel.config_none
let full = Kernel.config_full

let flush_pad =
  { none with Kernel.flush_on_switch = true; pad_switch = true }

let colour_only = { none with Kernel.colouring = true }

let without_flush = { full with Kernel.flush_on_switch = false }
let without_pad = { full with Kernel.pad_switch = false }

let without_colouring =
  (* kernel cloning requires coloured memory, so it goes too *)
  { full with Kernel.colouring = false; kernel_clone = false }

let without_clone = { full with Kernel.kernel_clone = false }
let without_irq_partitioning = { full with Kernel.partition_irqs = false }

let without_deterministic_delivery =
  { full with Kernel.deterministic_delivery = false }

let standard =
  [ ("none", none); ("flush+pad", flush_pad); ("colour-only", colour_only);
    ("full", full) ]

let ablations =
  [
    ("full", full);
    ("full\\flush", without_flush);
    ("full\\pad", without_pad);
    ("full\\colour", without_colouring);
    ("full\\clone", without_clone);
    ("full\\irq-part", without_irq_partitioning);
    ("full\\det-ipc", without_deterministic_delivery);
  ]

(* [full] heads the ablation grid and closes the standard four: list it
   once *)
let known =
  standard @ List.filter (fun (n, _) -> not (List.mem_assoc n standard)) ablations

let by_name n = Option.map snd (List.find_opt (fun (n', _) -> n' = n) known)

let name cfg =
  match List.find_opt (fun (_, c) -> c = cfg) known with
  | Some (n, _) -> n
  | None -> Format.asprintf "%a" Kernel.pp_config cfg
