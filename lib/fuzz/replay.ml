(* The replay-file codec.  A format is a field table, one row per
   once-only key; format 2 adds its repeated [dom], [sched] and [ipc]
   lines and the checks that span a whole topology.  One line reader
   serves both formats, and every defect it finds is a typed error: a
   fuzz harness replays untrusted files, so its reader must not throw
   [Failure] or [Not_found] at them. *)

type t = Scenario of Scenario.t | Topology of Topology.t

type parse_error = { line : int; reason : string }

let pp_parse_error ppf e =
  if e.line = 0 then Format.fprintf ppf "%s" e.reason
  else Format.fprintf ppf "line %d: %s" e.line e.reason

type load_error = Io of string | Parse of parse_error

let load_error_to_string = function
  | Io e -> e
  | Parse e -> Format.asprintf "%a" pp_parse_error e

exception Bad of parse_error

let fail line fmt =
  Printf.ksprintf (fun reason -> raise (Bad { line; reason })) fmt

(* A line's key is everything before its first space. *)
let split text =
  Option.map
    (fun i ->
      ( String.sub text 0 i,
        String.sub text (i + 1) (String.length text - i - 1) ))
    (String.index_opt text ' ')

let int ~line key v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> fail line "key `%s` wants an integer, got %S" key v

(* ------------------------------------------------------------------ *)
(* Field tables                                                         *)

(* A once-only key of records ['r]: how the writer shows its value, and
   how the reader checks a value and stores it in a record. *)
type 'r field = {
  key : string;
  show : 'r -> string;
  read : line:int -> string -> 'r -> 'r;
}

let int_field ?(lo = min_int) ?(hi = max_int) key get set =
  {
    key;
    show = (fun r -> string_of_int (get r));
    read =
      (fun ~line v r ->
        let n = int ~line key v in
        if n < lo then fail line "key `%s` must be at least %d" key lo;
        if n > hi then fail line "key `%s` must be at most %d" key hi;
        set r n);
  }

let bool_field key get set =
  {
    key;
    show = (fun r -> string_of_bool (get r));
    read =
      (fun ~line v r ->
        match bool_of_string_opt v with
        | Some b -> set r b
        | None -> fail line "`%s` wants true/false, got %S" key v);
  }

let name_field key to_string of_string get set =
  {
    key;
    show = (fun r -> to_string (get r));
    read =
      (fun ~line v r ->
        match of_string v with
        | Some x -> set r x
        | None -> fail line "unknown %s %S" key v);
  }

(* The dispatch has already read the version from the first [format]
   line; the row writes it and reads it back like any other key. *)
let format_field version =
  int_field "format" ~lo:version ~hi:version (fun _ -> version) (fun r _ -> r)

(* Format 1.  Each range is what [Scenario.generate] draws, widened to
   what [Shrink.candidates] reduces a value to. *)
let scenario_fields =
  let open Scenario in
  [
    format_field 1;
    name_field "oracle" oracle_to_string oracle_of_string
      (fun s -> s.oracle) (fun s oracle -> { s with oracle });
    name_field "mutant" mutant_to_string mutant_of_string
      (fun s -> s.mutant) (fun s mutant -> { s with mutant });
    bool_field "btb" (fun s -> s.btb) (fun s btb -> { s with btb });
    int_field "seed" (fun s -> s.seed) (fun s seed -> { s with seed });
    int_field "idx" (fun s -> s.idx) (fun s idx -> { s with idx });
    int_field "preset" ~lo:0 ~hi:(List.length machine_presets - 1)
      (fun s -> s.preset) (fun s preset -> { s with preset });
    int_field "lat_seed" ~lo:0 ~hi:1_023
      (fun s -> s.lat_seed) (fun s lat_seed -> { s with lat_seed });
    int_field "secret_a" ~lo:0 ~hi:7
      (fun s -> s.secret_a) (fun s secret_a -> { s with secret_a });
    int_field "secret_b" ~lo:0 ~hi:7
      (fun s -> s.secret_b) (fun s secret_b -> { s with secret_b });
    int_field "slice" ~lo:2_000 ~hi:6_000
      (fun s -> s.slice) (fun s slice -> { s with slice });
    int_field "pad_extra" ~lo:0 ~hi:1_000
      (fun s -> s.pad_extra) (fun s pad_extra -> { s with pad_extra });
    int_field "hi_seed" ~lo:0 ~hi:999_999
      (fun s -> s.hi_seed) (fun s hi_seed -> { s with hi_seed });
    int_field "hi_sweep" ~lo:1 ~hi:4
      (fun s -> s.hi_sweep) (fun s hi_sweep -> { s with hi_sweep });
    int_field "hi_len" ~lo:0 ~hi:80
      (fun s -> s.hi_len) (fun s hi_len -> { s with hi_len });
    int_field "lo_phases" ~lo:1 ~hi:3
      (fun s -> s.lo_phases) (fun s lo_phases -> { s with lo_phases });
    int_field "lo_lines" ~lo:1 ~hi:16
      (fun s -> s.lo_lines) (fun s lo_lines -> { s with lo_lines });
    int_field "channel" ~lo:0 ~hi:(List.length Tpro_channel.Catalog.all - 1)
      (fun s -> s.channel) (fun s channel -> { s with channel });
    int_field "cap_seed" ~lo:0 ~hi:9
      (fun s -> s.cap_seed) (fun s cap_seed -> { s with cap_seed });
    int_field "trace_steps" ~lo:20 ~hi:500
      (fun s -> s.trace_steps) (fun s trace_steps -> { s with trace_steps });
  ]

(* Format 2's once-only keys, with the ranges [Topology.generate] draws.
   Domain indices are checked against the [dom] lines, in
   [check_topology]. *)
let topology_fields =
  let open Topology in
  [
    format_field 2;
    name_field "mutant" Scenario.mutant_to_string Scenario.mutant_of_string
      (fun t -> t.mutant) (fun t mutant -> { t with mutant });
    bool_field "smt" (fun t -> t.smt) (fun t smt -> { t with smt });
    bool_field "btb" (fun t -> t.btb) (fun t btb -> { t with btb });
    int_field "seed" (fun t -> t.seed) (fun t seed -> { t with seed });
    int_field "idx" (fun t -> t.idx) (fun t idx -> { t with idx });
    int_field "n_cores" ~lo:1 ~hi:4
      (fun t -> t.n_cores) (fun t n_cores -> { t with n_cores });
    int_field "lat_seed" ~lo:0 ~hi:1_023
      (fun t -> t.lat_seed) (fun t lat_seed -> { t with lat_seed });
    int_field "secret_a" ~lo:0 ~hi:7
      (fun t -> t.secret_a) (fun t secret_a -> { t with secret_a });
    int_field "secret_b" ~lo:0 ~hi:7
      (fun t -> t.secret_b) (fun t secret_b -> { t with secret_b });
    int_field "bus_slot" ~lo:0 ~hi:128
      (fun t -> t.bus_slot) (fun t bus_slot -> { t with bus_slot });
    int_field "pad_extra" ~lo:0 ~hi:1_000
      (fun t -> t.pad_extra) (fun t pad_extra -> { t with pad_extra });
    int_field "deep_hi"
      (fun t -> t.deep_hi) (fun t deep_hi -> { t with deep_hi });
    int_field "deep_lo"
      (fun t -> t.deep_lo) (fun t deep_lo -> { t with deep_lo });
    int_field "cap_dom"
      (fun t -> t.cap_dom) (fun t cap_dom -> { t with cap_dom });
    int_field "cap_obs"
      (fun t -> t.cap_obs) (fun t cap_obs -> { t with cap_obs });
    int_field "skip_idx" ~lo:0 ~hi:23
      (fun t -> t.skip_idx) (fun t skip_idx -> { t with skip_idx });
    int_field "mis_src"
      (fun t -> t.mis_src) (fun t mis_src -> { t with mis_src });
    int_field "mis_dst"
      (fun t -> t.mis_dst) (fun t mis_dst -> { t with mis_dst });
  ]

(* ------------------------------------------------------------------ *)
(* Writer                                                               *)

let write fields r =
  String.concat "" (List.map (fun f -> f.key ^ " " ^ f.show r ^ "\n") fields)

let ints key l = String.concat " " (key :: List.map string_of_int l) ^ "\n"

let to_string = function
  | Scenario s -> write scenario_fields s
  | Topology t ->
    let dom (d : Topology.dom_spec) =
      [ d.d_core; d.d_colours; d.d_pages; d.d_workload; d.d_wseed; d.d_slice ]
    in
    String.concat ""
      (write topology_fields t
       :: List.map (fun d -> ints "dom" (dom d)) (Array.to_list t.domains)
      @ List.map (fun (c, o) -> ints "sched" (c :: Array.to_list o)) t.scheds
      @ List.map (fun (src, dst) -> ints "ipc" [ src; dst ]) t.ipc)

(* ------------------------------------------------------------------ *)
(* Reader                                                               *)

(* Read [text]'s [key value] lines, in file order, into [template]
   through [fields].  A key of [repeated] may occur any number of times
   and hands its integers to its handler.  Every once-only key but
   [format] is required, so no field of [template] survives. *)
let read ?(repeated = []) fields template text =
  let seen = Hashtbl.create 32 and r = ref template in
  List.iteri
    (fun i text ->
      let line = i + 1 in
      if String.trim text <> "" then
        match split text with
        | None -> fail line "missing value (expected `key value`, got %S)" text
        | Some (key, v) -> (
          match List.assoc_opt key repeated with
          | Some take ->
            take ~line
              (List.map (int ~line key)
                 (List.filter (( <> ) "") (String.split_on_char ' ' v)))
          | None -> (
            match List.find_opt (fun f -> f.key = key) fields with
            | None -> fail line "unknown key `%s`" key
            | Some f ->
              if Hashtbl.mem seen key then fail line "duplicate key `%s`" key;
              if String.trim v = "" then
                fail line "missing value for key `%s`" key;
              Hashtbl.add seen key ();
              r := f.read ~line v !r)))
    (String.split_on_char '\n' text);
  List.iter
    (fun f ->
      if f.key <> "format" && not (Hashtbl.mem seen f.key) then
        fail 0 "missing key `%s`" f.key)
    fields;
  !r

(* The checks that span a topology file, reported at line 0: every
   domain index in range, and the shape [Topology.generate] gives a
   topology — 2 to 8 domains sharing the 15 LLC colours the kernel
   leaves, per core a schedule that runs each of its domains once, and
   two distinct domains in each focus, capacity and miscolour pair. *)
let check_topology (t : Topology.t) =
  let n = Topology.n_domains t in
  if n < 2 then fail 0 "a topology wants at least 2 `dom` lines";
  if n > 8 then fail 0 "a topology wants at most 8 `dom` lines";
  Array.iteri
    (fun d (ds : Topology.dom_spec) ->
      if ds.d_core < 0 || ds.d_core >= t.n_cores then
        fail 0 "dom %d: core %d out of range (%d cores)" d ds.d_core
          t.n_cores;
      if ds.d_colours < 1 || ds.d_pages < 1 || ds.d_slice < 1 || ds.d_wseed < 0
      then
        fail 0
          "dom %d: wants at least 1 colour, 1 page, a positive slice and a \
           non-negative workload seed"
          d;
      if
        ds.d_colours > 2 || ds.d_pages > 6 || ds.d_slice > 7_000
        || ds.d_workload < 0 || ds.d_workload > 3 || ds.d_wseed > 999_999
      then
        fail 0
          "dom %d: wants at most 2 colours, at most 6 pages, a slice of at \
           most 7000, a workload from 0 to 3 and a workload seed below \
           1000000"
          d)
    t.domains;
  let colours =
    Array.fold_left (fun c ds -> c + ds.Topology.d_colours) 0 t.domains
  in
  if colours > 15 then
    fail 0 "the domains want %d LLC colours, but 15 are free" colours;
  let check_dom what v =
    if v < 0 || v >= n then
      fail 0 "%s: domain index %d out of range (%d domains)" what v n
  in
  List.iter
    (fun (core, order) ->
      if core < 0 || core >= t.n_cores then
        fail 0 "sched: core %d out of range" core;
      Array.iter (check_dom "sched") order;
      let core_of d = t.domains.(d).Topology.d_core in
      Array.iter
        (fun d ->
          if core_of d <> core then
            fail 0 "sched: domain %d lives on core %d, not %d" d (core_of d)
              core)
        order;
      if
        List.sort compare (Array.to_list order)
        <> List.filter (fun d -> core_of d = core) (List.init n Fun.id)
      then
        fail 0 "sched: core %d's order is not a permutation of its domains"
          core)
    t.scheds;
  List.iter
    (fun (src, dst) ->
      check_dom "ipc" src;
      check_dom "ipc" dst;
      if src >= dst then
        fail 0 "ipc: edges must go low to high (got %d %d)" src dst)
    t.ipc;
  List.iter
    (fun ((k1, v1), (k2, v2)) ->
      check_dom k1 v1;
      check_dom k2 v2;
      if v1 = v2 then fail 0 "%s and %s: both name domain %d" k1 k2 v1)
    [
      (("deep_hi", t.deep_hi), ("deep_lo", t.deep_lo));
      (("cap_dom", t.cap_dom), ("cap_obs", t.cap_obs));
      (("mis_src", t.mis_src), ("mis_dst", t.mis_dst));
    ];
  t

let read_topology text =
  let doms = ref [] and scheds = ref [] and ipc = ref [] in
  let repeated =
    [
      ( "dom",
        fun ~line -> function
          | [ d_core; d_colours; d_pages; d_workload; d_wseed; d_slice ] ->
            doms :=
              { Topology.d_core; d_colours; d_pages; d_workload; d_wseed;
                d_slice }
              :: !doms
          | l -> fail line "`dom` wants 6 integers, got %d" (List.length l) );
      ( "sched",
        fun ~line -> function
          | core :: (_ :: _ as order) ->
            scheds := (core, Array.of_list order) :: !scheds
          | _ ->
            fail line "`sched` wants a core and at least one domain index" );
      ( "ipc",
        fun ~line -> function
          | [ src; dst ] -> ipc := (src, dst) :: !ipc
          | l -> fail line "`ipc` wants 2 integers, got %d" (List.length l) );
    ]
  in
  let t = read ~repeated topology_fields (Topology.generate ~seed:0 0) text in
  let domains = Array.of_list (List.rev !doms) in
  check_topology
    { t with domains; scheds = List.rev !scheds; ipc = List.rev !ipc }

(* The version named by the first [format] line; a file without one
   predates the key and is format 1. *)
let declared_format text =
  let rec go line = function
    | [] -> 1
    | l :: rest -> (
      match split l with
      | Some ("format", v) -> (
        match int_of_string_opt (String.trim v) with
        | Some f -> f
        | None -> fail line "format: not an integer: %s" v)
      | _ -> go (line + 1) rest)
  in
  go 1 (String.split_on_char '\n' text)

let of_string text =
  match
    match declared_format text with
    | 1 -> Scenario (read scenario_fields (Scenario.generate ~seed:0 0) text)
    | 2 -> Topology (read_topology text)
    | f ->
      fail 0 "unsupported replay format %d (this build reads formats 1 and 2)"
        f
  with
  | r -> Ok r
  | exception Bad e -> Error e

let save path r =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_string r))

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error (Io msg)
  | text -> Result.map_error (fun e -> Parse e) (of_string text)
