(* In-memory spans for the traced run.

   A span is recorded around one call from the benchmark into a layer's
   public function.  Its layer is the prefix of its name up to the first
   dot ([kernel.build] belongs to [kernel]).  Spans are kept in memory,
   from any domain, and written out once when the run ends.  Tasks that
   run on pool workers adopt their submitter's span as parent through
   {!under}. *)

type t = {
  id : int;
  parent : int;  (** 0 = no parent *)
  name : string;
  start : float;
  stop : float;
  dom : int;
}

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded : t list ref = ref []
let current = Domain.DLS.new_key (fun () -> 0)

let record s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

let with_ name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = Domain.DLS.get current in
  Domain.DLS.set current id;
  let start = Util.now () in
  Fun.protect f ~finally:(fun () ->
      let stop = Util.now () in
      Domain.DLS.set current parent;
      record { id; parent; name; start; stop; dom = (Domain.self () :> int) })

let current_id () = Domain.DLS.get current

(* Run a pool task under [parent], the span that submitted it.  A task
   that a domain picks up while one of its own spans is open (a caller
   helping with nested work) nests under that span instead, so the
   helper's span does not count the task's time as its own. *)
let under parent f =
  let saved = Domain.DLS.get current in
  if saved <> 0 then f ()
  else begin
    Domain.DLS.set current parent;
    Fun.protect f ~finally:(fun () -> Domain.DLS.set current saved)
  end

let all () = List.rev !recorded
let dur s = s.stop -. s.start

(* Self time: a span's duration minus the time its children cover. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, Float.max 0. (dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id))))
    spans

let layer_self_seconds spans layer =
  List.fold_left
    (fun acc (s, self) -> if layer_of s.name = layer then acc +. self else acc)
    0. (self_times spans)

(* Descendants of [root] (inclusive). *)
let subtree root spans =
  let keep = Hashtbl.create 1024 in
  Hashtbl.replace keep root.id ();
  (* ids are drawn on entry, so a parent's id is below its children's *)
  let by_id = List.sort (fun a b -> compare a.id b.id) spans in
  List.filter
    (fun s ->
      if s.id = root.id || Hashtbl.mem keep s.parent then begin
        Hashtbl.replace keep s.id ();
        true
      end
      else false)
    by_id

(* Share of [root]'s interval covered by the union of its direct
   children. *)
let covered_frac root spans =
  let kids =
    List.sort compare
      (List.filter_map
         (fun s -> if s.parent = root.id then Some (s.start, s.stop) else None)
         spans)
  in
  let covered, _ =
    List.fold_left
      (fun (acc, upto) (a, b) ->
        let a = Float.max a upto in
        if b > a then (acc +. (b -. a), b) else (acc, upto))
      (0., root.start) kids
  in
  if dur root > 0. then covered /. dur root else 1.

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Chrome trace-event JSON (complete events, microseconds). *)
let write_chrome path ~workload =
  let spans = all () in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let ev s =
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"workload\":\"%s\"}}"
      (json_escape s.name) (layer_of s.name)
      ((s.start -. t0) *. 1e6)
      (dur s *. 1e6) s.dom s.id s.parent (json_escape workload)
  in
  Util.write_file path ("[\n" ^ String.concat ",\n" (List.map ev spans) ^ "\n]\n")
