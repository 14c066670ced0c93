open Tpro_hw
open Tpro_kernel
open Tpro_secmodel

let n_domains = 3

let slice = 20_000
let pad = 20_000

let buf_of d = 0x2000_0000 + (d * 0x1000_0000)

let observer d =
  Program.concat
    [
      [| Program.Read_clock |];
      Tpro_channel.Prime_probe.probe ~base:(buf_of d) ~lines:12 ~line_size:64;
      [| Program.Syscall Program.Sys_null; Program.Read_clock |];
      Tpro_channel.Prime_probe.filler ~cycles:slice ~chunk:25;
      [| Program.Read_clock; Program.Halt |];
    ]

let worker ~d ~secret =
  Program.random ~syscalls:true
    (Rng.create ((d * 7919) + secret))
    ~len:80
    ~data_base:(buf_of d)
    ~data_bytes:(2 * 4096)

let build ~cfg ~seed ~secrets =
  if Array.length secrets <> n_domains then
    invalid_arg "Mutual.build: need one secret per domain";
  let run =
    System.build
      (System.spec ~machine:(Ni_scenario.machine_config ~seed) ~cfg
         (List.init n_domains (fun d ->
              System.domain ~slice ~pad_cycles:pad
                ~regions:[ (buf_of d, 2) ]
                ~programs:[ observer d; worker ~d ~secret:secrets.(d) ]
                ())))
  in
  let k = run.Nonint.kernel in
  (* each domain's first thread is its observer *)
  let observer_of dom = List.hd (Domain.threads dom) in
  (k, Array.of_list (List.map observer_of (Kernel.domains k)))

let run_views ~cfg ~seed ~secrets =
  let k, observers = build ~cfg ~seed ~secrets in
  Array.iter (fun th -> Thread.set_traced th true) observers;
  Kernel.run ~max_steps:500_000 k;
  Array.map
    (fun th -> (Observation.of_thread th, Thread.cost_trace th))
    observers

let check ?(seeds = [ 0; 1 ]) ?(secret_values = [ 0; 1; 2 ]) ~cfg () =
  let base_secrets = Array.make n_domains 0 in
  let violations = ref [] in
  let comparisons = ref 0 in
  List.iter
    (fun seed ->
      let base = run_views ~cfg ~seed ~secrets:base_secrets in
      for d = 0 to n_domains - 1 do
        List.iter
          (fun v ->
            if v <> base_secrets.(d) then begin
              let secrets = Array.copy base_secrets in
              secrets.(d) <- v;
              let view = run_views ~cfg ~seed ~secrets in
              for o = 0 to n_domains - 1 do
                if o <> d then begin
                  incr comparisons;
                  if view.(o) <> base.(o) then
                    violations :=
                      Printf.sprintf
                        "domain %d's secret (0 -> %d) visible to domain %d under seed %d"
                        d v o seed
                      :: !violations
                end
              done
            end)
          secret_values
      done)
    seeds;
  let name = "mutual-NI" in
  let description =
    "no domain's secret influences any other domain's observations, for \
     every choice of which domain holds the secret"
  in
  match List.rev !violations with
  | [] ->
    {
      Proofs.name;
      description;
      holds = true;
      detail =
        Proofs.Stats
          (Printf.sprintf "%d cross-domain comparisons, all identical"
             !comparisons);
    }
  | v :: _ ->
    {
      Proofs.name;
      description;
      holds = false;
      detail =
        Proofs.Counter_example
          (Printf.sprintf "%d/%d comparisons diverged; first: %s"
             (List.length !violations) !comparisons v);
    }
