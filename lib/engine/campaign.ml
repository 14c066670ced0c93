(* The one campaign loop: batches through the supervisor, a snapshot of
   every [Ok] key after each batch, and a resume that restores exactly
   those keys.  Tasks are pure functions of their key, so anything not
   in the snapshot — never started, or lost to a supervised failure —
   simply runs (again), and the final results do not depend on where
   the process died. *)

type 'r codec = {
  encode : 'r -> string;
  decode : string -> ('r, string) result;
}

type 'r t = {
  kind : string;
  params : (string * string) list;
  keys : int list;
  execute : fuel:Supervisor.Fuel.t -> int -> 'r;
  codec : 'r codec;
  batch : int;
  label : string;
}

type 'r outcome = {
  results : (int * ('r, Supervisor.task_error) result) list;
  resumed : int;
  notes : string list;
}

(* ------------------------------------------------------------------ *)
(* Payload: the header lines, then "task <key> <escaped result>" per
   settled key.  The first line versions the payload inside the
   (unchanged) checkpoint frame, so snapshots written by the older
   per-driver formats are rejected instead of misread. *)

let magic = "tpro-campaign 1"

let header c =
  magic
  :: ("kind " ^ c.kind)
  :: List.map (fun (k, v) -> k ^ " " ^ Checkpoint.escape v) c.params

let payload c settled =
  let b = Buffer.create 1024 in
  List.iter (fun l -> Buffer.add_string b (l ^ "\n")) (header c);
  List.iter
    (fun k ->
      Option.iter
        (fun r -> Printf.bprintf b "task %d %s\n" k (Checkpoint.escape (c.codec.encode r)))
        (Hashtbl.find_opt settled k))
    c.keys;
  Buffer.contents b

let ( let* ) = Result.bind

let rec match_header expected lines =
  match (expected, lines) with
  | [], rest -> Ok rest
  | h :: _, [] -> Error (Printf.sprintf "header ends before `%s`" h)
  | h :: hs, l :: ls when l = h -> match_header hs ls
  | h :: _, l :: _ ->
    Error (Printf.sprintf "written for another campaign: `%s`, this run has `%s`" l h)

(* The escaped result holds no newline or tab, but may hold spaces. *)
let parse_task c ~known settled line =
  match String.split_on_char ' ' line with
  | "task" :: key :: (_ :: _ as blob) when
      Option.map string_of_int (int_of_string_opt key) = Some key ->
    let k = int_of_string key in
    if not (Hashtbl.mem known k) then
      Error (Printf.sprintf "task %d is not part of this campaign" k)
    else if Hashtbl.mem settled k then Error (Printf.sprintf "task %d recorded twice" k)
    else
      let* s =
        Option.to_result ~none:(Printf.sprintf "task %d: malformed escape" k)
          (Checkpoint.unescape (String.concat " " blob))
      in
      let* r = Result.map_error (Printf.sprintf "task %d: %s" k) (c.codec.decode s) in
      Ok (Hashtbl.replace settled k r)
  | _ -> Error ("malformed task line: " ^ line)

let parse c text =
  let* lines =
    match String.split_on_char '\n' text |> List.rev with
    | "" :: rev_lines -> Ok (List.rev rev_lines)
    | _ -> Error "payload does not end a line"
  in
  let* tasks =
    match lines with
    | first :: _ when first <> magic ->
      Error "not a campaign snapshot, or one from an older tpro"
    | _ -> match_header (header c) lines
  in
  let known = Hashtbl.create 64 and settled = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace known k ()) c.keys;
  let* () =
    List.fold_left
      (fun acc line -> Result.bind acc (fun () -> parse_task c ~known settled line))
      (Ok ()) tasks
  in
  Ok settled

(* What a resume starts from, and the one note that says why. *)
let restore c path =
  let fresh note = (Hashtbl.create 64, note) in
  let rejected why =
    fresh (Printf.sprintf "checkpoint rejected (%s); restarting from scratch" why)
  in
  match Checkpoint.load ~path with
  | Error (Checkpoint.Io msg) ->
    fresh (Printf.sprintf "no checkpoint to resume (%s); starting from scratch" msg)
  | Error e -> rejected (Checkpoint.error_to_string e)
  | Ok text -> (
    match parse c text with
    | Error why -> rejected why
    | Ok settled ->
      ( settled,
        Printf.sprintf "resumed %s campaign: %d/%d tasks restored" c.kind
          (Hashtbl.length settled) (List.length c.keys) ))

(* ------------------------------------------------------------------ *)

let rec take n = function
  | x :: rest when n > 0 ->
    let xs, rest = take (n - 1) rest in
    (x :: xs, rest)
  | rest -> ([], rest)

let run ~sup ?checkpoint ?(resume = false) c =
  let settled, notes =
    match (resume, checkpoint) with
    | true, Some path ->
      let settled, note = restore c path in
      (settled, [ note ])
    | _ -> (Hashtbl.create 64, [])
  in
  let resumed = Hashtbl.length settled and lost = Hashtbl.create 4 in
  let rec drive = function
    | [] -> ()
    | todo ->
      let batch, rest = take (max 1 c.batch) todo in
      List.iter2
        (fun k -> function
          | Ok r -> Hashtbl.replace settled k r
          | Error e -> Hashtbl.replace lost k e)
        batch
        (Supervisor.run sup ~label:c.label ~key:Fun.id c.execute batch);
      Option.iter
        (fun path -> Supervisor.checkpoint_save sup ~path (payload c settled))
        checkpoint;
      drive rest
  in
  drive (List.filter (fun k -> not (Hashtbl.mem settled k)) c.keys);
  let result k =
    match Hashtbl.find_opt settled k with Some r -> Ok r | None -> Error (Hashtbl.find lost k)
  in
  { results = List.map (fun k -> (k, result k)) c.keys; resumed; notes }
