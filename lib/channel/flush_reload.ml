open Tpro_kernel

let slice = 20_000
let pad = 12_000

let lib_victim = 0x5000_0000 (* victim's view of the library *)
let lib_spy = 0x6000_0000 (* spy's view *)
let monitored_lines = 8

let build ~shared ~cfg ~seed ~secret =
  let k = Kernel.create ~machine_config:(Attack.machine ~seed) cfg in
  let spy_dom = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  let victim_dom = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  Kernel.map_region k victim_dom ~vbase:lib_victim ~pages:1;
  if shared then
    Kernel.share_region k ~owner:victim_dom ~guest:spy_dom ~vbase:lib_victim
      ~pages:1 ~guest_vbase:lib_spy
  else Kernel.map_region k spy_dom ~vbase:lib_spy ~pages:1;
  (* victim: use the library — touch the secret-indexed line a few times *)
  let touch = Program.Load (lib_victim + (secret * 64)) in
  ignore
    (Kernel.spawn k victim_dom
       [| touch; Program.Compute 50; touch; Program.Halt |]);
  (* spy: flush the monitored lines, let the victim's slice pass, reload
     each line timed *)
  let flushes =
    Array.init monitored_lines (fun i -> Program.Clflush (lib_spy + (i * 64)))
  in
  let reloads =
    Array.init monitored_lines (fun i ->
        Program.Timed_load (lib_spy + (i * 64)))
  in
  let spy =
    Kernel.spawn k spy_dom
      (Program.concat
         [
           flushes;
           Prime_probe.filler ~cycles:(slice + 8_000) ~chunk:20;
           reloads;
           [| Program.Halt |];
         ])
  in
  (k, spy)

(* Decode: index of the fastest reload (the line the victim warmed), or
   [monitored_lines] when nothing stands out. *)
let decode obs =
  match Prime_probe.latencies obs with
  | [] -> -1
  | lats ->
    let arr = Array.of_list lats in
    let best = ref 0 in
    Array.iteri (fun i l -> if l < arr.(!best) then best := i) arr;
    let min_lat = arr.(!best) in
    let others =
      Array.to_list arr |> List.filteri (fun i _ -> i <> !best)
    in
    let next_best = List.fold_left min max_int others in
    if next_best - min_lat > 30 then !best else monitored_lines

let scenario ~shared () =
  {
    Attack.name =
      (if shared then "Flush+Reload on a shared library page"
       else "same attack against per-domain copies");
    symbols = List.init monitored_lines (fun i -> i);
    build = (fun ~cfg ~seed ~secret -> build ~shared ~cfg ~seed ~secret);
    decode;
    max_steps = 100_000;
  }
