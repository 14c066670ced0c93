(* Clocks, order statistics, process memory and small file helpers. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = List.sort compare xs

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile xs p =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.
let mean xs = match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)

let contains ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Peak resident set size of this process, in MiB, from the kernel's
   high-water mark ([VmHWM] in /proc/self/status). *)
let self_peak_rss_mb () =
  let status = read_file "/proc/self/status" in
  let kb =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
        | _ -> None)
      (String.split_on_char '\n' status)
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "no VmHWM line in /proc status"

(* A small deterministic generator for the benchmark's own inputs (job
   mixes, campaign seeds), independent of the model's RNG. *)
let mix seed i =
  let x = ref (Int64.of_int ((seed * 1_000_003) + i)) in
  x := Int64.mul (Int64.logxor !x (Int64.shift_right_logical !x 33)) 0xff51afd7ed558ccdL;
  x := Int64.mul (Int64.logxor !x (Int64.shift_right_logical !x 33)) 0xc4ceb9fe1a85ec53L;
  Int64.to_int (Int64.shift_right_logical !x 2)
