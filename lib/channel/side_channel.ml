open Tpro_kernel

let slice = 60_000
let pad = 20_000

let spy_buf = 0x2000_0000
let table = 0x5000_0000 (* the victim's lookup table: one page *)
let line_size = 64
(* Table entries sit 256 bytes (4 L1 sets) apart, starting 1 KiB into
   the page: sets 16..44, clear of the sets the kernel's own switch-path
   data accesses pollute (an attacker maps the noise floor during
   calibration and avoids it). *)
let table_offset = 1024
let stride = 256

(* The victim's "encryption round": the same code for every secret — the
   secret sits in r0 and selects the table line. *)
let victim_program =
  Program.concat
    [
      Array.concat
        (List.init 8 (fun _ ->
             [|
               Program.Load_idx
                 { base = table + table_offset; index = 0; scale = stride };
               Program.Compute 50;
             |]));
      [| Program.Halt |];
    ]

let build ~cfg ~seed ~secret =
  let k = Kernel.create ~machine_config:(Attack.machine ~seed) cfg in
  let spy_dom = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  let victim_dom = Kernel.create_domain k ~slice ~pad_cycles:pad () in
  Kernel.map_region k spy_dom ~vbase:spy_buf ~pages:4;
  Kernel.map_region k victim_dom ~vbase:table ~pages:1;
  (* identical program, secret-dependent data *)
  ignore (Kernel.spawn k victim_dom ~regs:[| secret |] victim_program);
  let spy =
    Kernel.spawn k spy_dom
      (Program.concat
         [
           Prime_probe.prime ~base:spy_buf ~lines:256 ~line_size;
           Prime_probe.filler ~cycles:(slice + 10_000) ~chunk:20;
           Prime_probe.probe_shuffled ~base:spy_buf ~lines:256 ~line_size ();
           [| Program.Halt |];
         ])
  in
  (k, spy)

(* Decode: per-L1-set probe latency sums; the hottest set's index bits
   are the victim's table index.  The L1 set of an address is determined
   by its page-offset bits, which the spy knows from its own vaddrs. *)
let decode obs =
  let order = Prime_probe.shuffled_addrs ~base:spy_buf ~lines:256 ~line_size () in
  let lats = Array.of_list (Prime_probe.latencies obs) in
  if Array.length lats <> Array.length order then -1
  else begin
    let per_set = Array.make 64 0 in
    Array.iteri
      (fun i addr ->
        let set = (addr lsr 6) land 63 in
        per_set.(set) <- per_set.(set) + lats.(i))
      order;
    (* consider only the quiet sets the table can map to *)
    let first_set = table_offset lsr 6 in
    let sets_per_entry = stride lsr 6 in
    let best = ref first_set in
    for s = first_set to first_set + (8 * sets_per_entry) - 1 do
      if per_set.(s) > per_set.(!best) then best := s
    done;
    (!best - first_set) / sets_per_entry
  end

let scenario () =
  {
    Attack.name = "AES-style table-lookup side channel (victim uncooperative)";
    symbols = List.init 8 (fun i -> i);
    build;
    decode;
    max_steps = 200_000;
  }
