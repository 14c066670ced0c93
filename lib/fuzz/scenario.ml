open Tpro_hw
open Tpro_kernel
open Tpro_channel
module Presets = Time_protection.Presets
module Wcet = Time_protection.Wcet
module System = Time_protection.System

(* Replay-file format version for {!to_string}/{!of_string}.  Version 1
   is the flat two-domain scenario; version 2 is [Topology]'s N-domain
   record.  [of_string] accepts files with no [format] line (pre-1.6
   scenarios) as version 1. *)
let format_version = 1

type oracle = Nonint | Capacity | Legacy

type mutant = No_mutant | Skip_flush | Drop_padding | Miscolour

type t = {
  seed : int;
  idx : int;
  oracle : oracle;
  mutant : mutant;
  preset : int;
  btb : bool;
  lat_seed : int;
  secret_a : int;
  secret_b : int;
  slice : int;
  pad_extra : int;
  hi_seed : int;
  hi_sweep : int;
  hi_len : int;
  lo_phases : int;
  lo_lines : int;
  channel : int;
  cap_seed : int;
  trace_steps : int;
}

(* ------------------------------------------------------------------ *)
(* Machine presets: the same six structural variants the resource-layer
   tests exercise, so the fuzzer quantifies over every config shape.    *)

let with_l2 =
  {
    Machine.default_config with
    Machine.l2_geom = Some (Cache.geometry ~sets:256 ~ways:8 ~line_bits:6 ());
  }

let quad = { Machine.default_config with Machine.n_cores = 4 }
let smt2 = { Machine.default_config with Machine.n_cores = 2; smt = true }

let prand =
  { Machine.default_config with Machine.replacement = Cache.Pseudo_random 7 }

let small_llc =
  {
    Machine.default_config with
    Machine.llc_geom = Cache.geometry ~sets:256 ~ways:4 ~line_bits:6 ();
    n_frames = 512;
  }

let machine_presets =
  [
    ("default", Machine.default_config);
    ("with-l2", with_l2);
    ("quad-core", quad);
    ("smt", smt2);
    ("pseudo-random", prand);
    ("small-llc", small_llc);
  ]

let n_presets = List.length machine_presets

let preset_name s = fst (List.nth machine_presets (s.preset mod n_presets))

(* The skip-flush mutant's victim, drawn from core-0 resources every
   preset has and every oracle workload exercises. *)
let skip_target s =
  List.nth [ "l1d0"; "l1i0"; "branch predictor" ] (s.hi_seed mod 3)

let machine_config s =
  let base = snd (List.nth machine_presets (s.preset mod n_presets)) in
  {
    base with
    Machine.lat = Latency.with_seed base.Machine.lat s.lat_seed;
    btb_entries = (if s.btb then Some 64 else base.Machine.btb_entries);
    fault =
      (match s.mutant with
      | Skip_flush -> Some (Machine.Silent_skip_flush (skip_target s))
      | No_mutant | Drop_padding | Miscolour -> None);
  }

(* The noninterference oracle only makes sense under the configuration
   that claims to enforce it; the mutants weaken exactly one mechanism. *)
let kernel_config s =
  match s.mutant with
  | Drop_padding -> { Presets.full with Kernel.pad_switch = false }
  | No_mutant | Skip_flush | Miscolour -> Presets.full

(* ------------------------------------------------------------------ *)
(* Generated programs.  Everything is derived from the scenario's
   integer fields, so shrinking a field shrinks the program and a saved
   scenario replays bit-identically.                                    *)

let hi_buf = 0x4000_0000
let lo_buf = 0x2000_0000
let hi_pages = 8
let lo_pages = 2
let max_steps = 300_000

let hi_program s ~secret =
  let call =
    if secret land 1 = 0 then Program.Sys_null else Program.Sys_info
  in
  let pages = 1 + ((s.hi_sweep + secret) mod hi_pages) in
  let sweep =
    Array.concat
      (List.init pages (fun p ->
           Array.init 8 (fun l ->
               Program.Load (hi_buf + (p * 4096) + (l * 64)))))
  in
  Program.concat
    [
      [|
        Program.Syscall
          (Program.Sys_arm_irq
             { irq = 1; delay = s.slice + 500 + (secret * 211) });
      |];
      Array.make (1 + (secret mod 3)) (Program.Syscall call);
      sweep;
      Program.random ~syscalls:false
        (Rng.create (s.hi_seed lxor (secret * 0x9E3779B9)))
        ~len:s.hi_len ~data_base:hi_buf ~data_bytes:(hi_pages * 4096);
    ]

let lo_program s =
  let phase i =
    Program.concat
      [
        [| Program.Read_clock |];
        Prime_probe.probe
          ~base:(lo_buf + (i * 256))
          ~lines:s.lo_lines ~line_size:64;
        [| Program.Syscall Program.Sys_null; Program.Read_clock |];
        Array.init 4 (fun b ->
            Program.Branch { tag = b; taken = (b + i) land 1 = 0 });
        Prime_probe.filler ~cycles:s.slice ~chunk:25;
      ]
  in
  Program.concat
    (List.init s.lo_phases phase @ [ [| Program.Read_clock; Program.Halt |] ])

let pad_cycles s mc = Wcet.recommended_pad ~max_compute:64 mc + s.pad_extra

(* Remap [victim]'s first page onto a frame of [thief]'s colour — the
   allocator bug page colouring exists to rule out.  Shared with
   [Topology], whose miscolour mutant plants the same bug between an
   arbitrary domain pair. *)
let miscolour_remap k ~victim ~thief ~vbase =
  let victim = Kernel.domain k victim and thief = Kernel.domain k thief in
  match thief.Domain.colours with
  | lc :: _ -> (
    match
      Frame_alloc.alloc (Kernel.allocator k) ~owner:victim.Domain.did
        ~colours:[ lc ]
    with
    | Some pfn ->
      let vpn = vbase lsr Kernel.page_bits k in
      Domain.unmap_page victim ~vpn;
      Domain.map_page victim ~vpn ~pfn
    | None -> ())
  | [] -> ()

let build_ni s ~secret =
  let mc = machine_config s in
  let pad = pad_cycles s mc in
  let tweak =
    match s.mutant with
    | Miscolour ->
      Some (fun k -> miscolour_remap k ~victim:0 ~thief:1 ~vbase:hi_buf)
    | No_mutant | Skip_flush | Drop_padding -> None
  in
  System.build
    (System.spec ~machine:mc ~cfg:(kernel_config s) ?tweak
       [
         System.domain ~slice:s.slice ~pad_cycles:pad
           ~regions:[ (hi_buf, hi_pages) ]
           ~programs:[ hi_program s ~secret ]
           ~irqs:[ 1 ] ();
         System.domain ~slice:s.slice ~pad_cycles:pad
           ~regions:[ (lo_buf, lo_pages) ]
           ~programs:[ lo_program s ] ~observer:true ();
       ])

(* ------------------------------------------------------------------ *)
(* Deterministic generation                                            *)

let generate ~seed ?(mutant = No_mutant) idx =
  let rng =
    Rng.create (Rng.hash_int (Int64.of_int seed) (Int64.of_int idx))
  in
  let oracle =
    match mutant with
    | No_mutant ->
      (* weighted mix: noninterference trials dominate, the expensive
         end-to-end capacity trials are rationed *)
      let r = Rng.int rng 32 in
      if r < 20 then Nonint else if r < 31 then Legacy else Capacity
    | Skip_flush -> if idx land 1 = 0 then Nonint else Legacy
    | Drop_padding | Miscolour -> Nonint
  in
  let secret_a = Rng.int rng 8 in
  let n_chan = List.length Catalog.all in
  (* bias towards low (cheap) channel indices *)
  let c1 = Rng.int rng n_chan and c2 = Rng.int rng n_chan in
  {
    seed;
    idx;
    oracle;
    mutant;
    preset = Rng.int rng n_presets;
    btb = Rng.bool rng;
    lat_seed = Rng.int rng 1024;
    secret_a;
    secret_b = (secret_a + 1 + Rng.int rng 7) mod 8;
    slice = 3_000 + (500 * Rng.int rng 7);
    pad_extra = 500 * Rng.int rng 3;
    hi_seed = Rng.int rng 1_000_000;
    hi_sweep = 1 + Rng.int rng 4;
    hi_len = 20 + Rng.int rng 61;
    lo_phases = 1 + Rng.int rng 3;
    lo_lines = 4 + Rng.int rng 13;
    channel = min c1 c2;
    cap_seed = Rng.int rng 10;
    trace_steps = 100 + Rng.int rng 401;
  }

(* Rough scenario weight; the shrinker must never increase it. *)
let size s =
  s.hi_len + (s.lo_phases * s.lo_lines) + s.hi_sweep + s.trace_steps
  + (s.slice / 100) + s.pad_extra

(* ------------------------------------------------------------------ *)
(* Replay files: one [key value] pair per line                          *)

let oracle_to_string = function
  | Nonint -> "nonint"
  | Capacity -> "capacity"
  | Legacy -> "legacy"

let oracle_of_string = function
  | "nonint" -> Some Nonint
  | "capacity" -> Some Capacity
  | "legacy" -> Some Legacy
  | _ -> None

let mutant_to_string = function
  | No_mutant -> "none"
  | Skip_flush -> "skip-flush"
  | Drop_padding -> "drop-padding"
  | Miscolour -> "miscolour"

let mutant_of_string = function
  | "none" -> Some No_mutant
  | "skip-flush" -> Some Skip_flush
  | "drop-padding" -> Some Drop_padding
  | "miscolour" -> Some Miscolour
  | _ -> None

let int_fields s =
  [
    ("seed", s.seed);
    ("idx", s.idx);
    ("preset", s.preset);
    ("lat_seed", s.lat_seed);
    ("secret_a", s.secret_a);
    ("secret_b", s.secret_b);
    ("slice", s.slice);
    ("pad_extra", s.pad_extra);
    ("hi_seed", s.hi_seed);
    ("hi_sweep", s.hi_sweep);
    ("hi_len", s.hi_len);
    ("lo_phases", s.lo_phases);
    ("lo_lines", s.lo_lines);
    ("channel", s.channel);
    ("cap_seed", s.cap_seed);
    ("trace_steps", s.trace_steps);
  ]

let to_string s =
  String.concat "\n"
    ([
       "format " ^ string_of_int format_version;
       "oracle " ^ oracle_to_string s.oracle;
       "mutant " ^ mutant_to_string s.mutant;
       "btb " ^ string_of_bool s.btb;
     ]
    @ List.map (fun (k, v) -> k ^ " " ^ string_of_int v) (int_fields s))
  ^ "\n"

(* Hardened replay-file parser.  Every malformed line is rejected with
   a typed error carrying its 1-based line number: missing value,
   non-integer value, unknown key, duplicate key.  Missing required
   keys are reported at line 0 (they are a property of the whole file).
   A fuzz harness replays untrusted files — its parser must not throw
   [Failure]/[Not_found] at them. *)

type parse_error = { line : int; reason : string }

let pp_parse_error ppf e =
  if e.line = 0 then Format.fprintf ppf "%s" e.reason
  else Format.fprintf ppf "line %d: %s" e.line e.reason

let int_keys =
  [
    "seed"; "idx"; "preset"; "lat_seed"; "secret_a"; "secret_b"; "slice";
    "pad_extra"; "hi_seed"; "hi_sweep"; "hi_len"; "lo_phases"; "lo_lines";
    "channel"; "cap_seed"; "trace_steps";
  ]

let known_keys = [ "format"; "oracle"; "mutant"; "btb" ] @ int_keys

(* Below these a replayed trial crashes: the keys size the generated
   programs, or pick a list entry modulo the list's length. *)
let int_minimums =
  [
    ("preset", 0); ("secret_a", 0); ("secret_b", 0); ("slice", 1);
    ("hi_len", 0); ("lo_phases", 0); ("lo_lines", 0); ("channel", 0);
  ]

exception Bad of parse_error

let of_string str =
  let tbl = Hashtbl.create 32 in
  match
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        let fail reason = raise (Bad { line = lineno; reason }) in
        if String.trim line <> "" then begin
          let key, value =
            match String.index_opt line ' ' with
            | None ->
              raise
                (Bad
                   {
                     line = lineno;
                     reason =
                       Printf.sprintf "missing value (expected `key value`, \
                                       got %S)" line;
                   })
            | Some i ->
              ( String.sub line 0 i,
                String.sub line (i + 1) (String.length line - i - 1) )
          in
          if not (List.mem key known_keys) then
            fail (Printf.sprintf "unknown key `%s`" key);
          if Hashtbl.mem tbl key then
            fail (Printf.sprintf "duplicate key `%s`" key);
          if String.trim value = "" then
            fail (Printf.sprintf "missing value for key `%s`" key);
          (match key with
          | "format" -> (
            (* forward compatibility: name the version we cannot read *)
            match int_of_string_opt value with
            | Some v when v = format_version -> ()
            | Some v ->
              fail
                (Printf.sprintf
                   "unsupported replay format %d (this build reads format %d)"
                   v format_version)
            | None ->
              fail (Printf.sprintf "key `format` wants an integer, got %S" value)
            )
          | "oracle" ->
            if oracle_of_string value = None then
              fail (Printf.sprintf "unknown oracle %S" value)
          | "mutant" ->
            if mutant_of_string value = None then
              fail (Printf.sprintf "unknown mutant %S" value)
          | "btb" ->
            if bool_of_string_opt value = None then
              fail (Printf.sprintf "`btb` wants true/false, got %S" value)
          | k -> (
            if int_of_string_opt value = None then
              fail
                (Printf.sprintf "key `%s` wants an integer, got %S" k value);
            match List.assoc_opt k int_minimums with
            | Some least when int_of_string value < least ->
              fail (Printf.sprintf "key `%s` must be at least %d" k least)
            | _ -> ()));
          Hashtbl.add tbl key value
        end)
      (String.split_on_char '\n' str)
  with
  | exception Bad e -> Error e
  | () -> (
    let require k =
      match Hashtbl.find_opt tbl k with
      | Some v -> v
      | None -> raise (Bad { line = 0; reason = "missing key `" ^ k ^ "`" })
    in
    let geti k = int_of_string (require k) in
    match
      {
        seed = geti "seed";
        idx = geti "idx";
        oracle = Option.get (oracle_of_string (require "oracle"));
        mutant = Option.get (mutant_of_string (require "mutant"));
        preset = geti "preset";
        btb = bool_of_string (require "btb");
        lat_seed = geti "lat_seed";
        secret_a = geti "secret_a";
        secret_b = geti "secret_b";
        slice = geti "slice";
        pad_extra = geti "pad_extra";
        hi_seed = geti "hi_seed";
        hi_sweep = geti "hi_sweep";
        hi_len = geti "hi_len";
        lo_phases = geti "lo_phases";
        lo_lines = geti "lo_lines";
        channel = geti "channel";
        cap_seed = geti "cap_seed";
        trace_steps = geti "trace_steps";
      }
    with
    | s -> Ok s
    | exception Bad e -> Error e)

type load_error = Io of string | Parse of parse_error

let load_error_to_string = function
  | Io e -> e
  | Parse e -> Format.asprintf "%a" pp_parse_error e

let save path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string s))

let load path =
  match open_in_bin path with
  | exception Sys_error e -> Error (Io e)
  | ic -> (
    match
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> of_string (really_input_string ic (in_channel_length ic)))
    with
    | Ok s -> Ok s
    | Error e -> Error (Parse e))

let pp ppf s =
  Format.fprintf ppf
    "trial %d/%d: %s oracle, %s machine%s, mutant %s, secrets (%d,%d), \
     slice %d"
    s.seed s.idx (oracle_to_string s.oracle) (preset_name s)
    (if s.btb then "+btb" else "")
    (mutant_to_string s.mutant) s.secret_a s.secret_b s.slice
