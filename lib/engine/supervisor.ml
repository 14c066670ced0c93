(* Fault-tolerant fan-out on top of [Pool].

   [Pool.map] settles every job but re-raises the first failure, tearing
   down the whole campaign.  The supervisor keeps the campaign alive:
   every task settles into a typed [('b, task_error) result], failed
   tasks are retried a bounded, deterministic number of times, runaway
   tasks are cut off by a cooperative fuel budget, and a pool whose
   worker domains cannot be spawned degrades to sequential execution
   with a warning instead of aborting.  Everything the supervisor
   absorbs is reported in the run summary — no fault is silent. *)

module Fuel = struct
  exception Out_of_fuel of { budget : int }

  type t = { budget : int option; mutable used : int }

  let make budget = { budget; used = 0 }

  let burn ?(amount = 1) t =
    t.used <- t.used + amount;
    match t.budget with
    | Some b when t.used > b -> raise (Out_of_fuel { budget = b })
    | Some _ | None -> ()

  let used t = t.used
end

type task_error =
  | Task_raised of { key : int; attempts : int; message : string }
  | Fuel_exhausted of { key : int; budget : int }
  | Duplicate_submission of { key : int }

let task_error_to_string = function
  | Task_raised { key; attempts; message } ->
    Printf.sprintf "task %d raised after %d attempt%s: %s" key attempts
      (if attempts = 1 then "" else "s")
      message
  | Fuel_exhausted { key; budget } ->
    Printf.sprintf "task %d exhausted its fuel budget (%d)" key budget
  | Duplicate_submission { key } ->
    Printf.sprintf "task %d submitted twice; duplicate rejected" key

type fault =
  | No_fault
  | Raise_once of { key : int }
  | Raise_always of { key : int }
  | Hang of { key : int }
  | Duplicate of { key : int }
  | Torn_checkpoint
  | Spawn_failure

exception Injected of int

let () =
  Printexc.register_printer (function
    | Injected k -> Some (Printf.sprintf "injected fault (task %d)" k)
    | _ -> None)

type summary = {
  total : int;
  ok : int;
  retried : int;
  failed : int;
  duplicates : int;
  degraded : bool;
  warnings : string list;
}

(* Deterministic exponential backoff before retry [attempt] (1-based):
   base * 2^(attempt-1), capped.  A pure function of the attempt
   number, so retried schedules are reproducible and results stay
   bit-identical with or without backoff. *)
let backoff_delay ~base ~cap attempt =
  let d = base *. (2. ** float_of_int (max 0 (attempt - 1))) in
  Float.min cap (Float.max 0. d)

type t = {
  pool : Pool.t option;
  domains : int;
  retries : int;
  backoff : (float * float) option;
  fuel_budget : int option;
  fault : fault;
  mutex : Mutex.t;
  raised_for : (int, int) Hashtbl.t;
      (* key -> injected raises fired so far *)
  mutable s_total : int;
  mutable s_ok : int;
  mutable s_retried : int;
  mutable s_failed : int;
  mutable s_duplicates : int;
  mutable s_degraded : bool;
  mutable s_warnings : string list; (* newest first *)
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let warn t msg = t.s_warnings <- msg :: t.s_warnings

let create ?domains ?(retries = 1) ?backoff ?fuel ?(fault = No_fault) () =
  let domains, calibration_note =
    match domains with
    | Some d -> (max 1 d, None)
    | None ->
      (* Calibrated default: on a 1-core (or CPU-quota'd) host the
         answer is 1 — sequential, zero worker domains — and the
         decision is recorded as a warning so campaign summaries say
         why no parallelism happened. *)
      let h = Calibrate.host () in
      let note =
        if h.Calibrate.recommended <= 1 then
          Some ("calibration: " ^ h.Calibrate.probe_note)
        else None
      in
      (h.Calibrate.recommended, note)
  in
  let fuel =
    (* the hang fault spins on the fuel gauge: give it a gauge even if
       the caller asked for an unlimited budget *)
    match (fuel, fault) with
    | None, Hang _ -> Some 1_000_000
    | f, _ -> f
  in
  let t =
    {
      pool = None;
      domains;
      retries = max 0 retries;
      backoff;
      fuel_budget = fuel;
      fault;
      mutex = Mutex.create ();
      raised_for = Hashtbl.create 7;
      s_total = 0;
      s_ok = 0;
      s_retried = 0;
      s_failed = 0;
      s_duplicates = 0;
      s_degraded = false;
      s_warnings = [];
    }
  in
  if domains <= 1 then begin
    Option.iter (warn t) calibration_note;
    t
  end
  else begin
    let spawn_result =
      match fault with
      | Spawn_failure -> Error "injected spawn failure"
      | _ -> Pool.create_opt ~domains ()
    in
    match spawn_result with
    | Ok pool -> { t with pool = Some pool }
    | Error msg ->
      t.s_degraded <- true;
      warn t
        (Printf.sprintf
           "worker domains failed to spawn (%s); degrading to sequential \
            execution"
           msg);
      t
  end

let pool t = t.pool
let degraded t = t.s_degraded
let fault t = t.fault

let shutdown t = Option.iter Pool.shutdown t.pool

let with_supervisor ?domains ?retries ?backoff ?fuel ?fault f =
  let t = create ?domains ?retries ?backoff ?fuel ?fault () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let summary t =
  locked t (fun () ->
      {
        total = t.s_total;
        ok = t.s_ok;
        retried = t.s_retried;
        failed = t.s_failed;
        duplicates = t.s_duplicates;
        degraded = t.s_degraded;
        warnings = List.rev t.s_warnings;
      })

let pp_summary ppf s =
  Format.fprintf ppf
    "supervisor: %d task%s: %d ok (%d retried), %d failed, %d duplicate%s \
     rejected%s"
    s.total
    (if s.total = 1 then "" else "s")
    s.ok s.retried s.failed s.duplicates
    (if s.duplicates = 1 then "" else "s")
    (if s.degraded then "; DEGRADED to sequential execution" else "");
  List.iter (fun w -> Format.fprintf ppf "@.  warning: %s" w) s.warnings

(* ------------------------------------------------------------------ *)
(* Task execution                                                       *)

(* Apply the injected fault, then the task.  The raise faults count
   firings per key under the supervisor mutex so retry behaviour is
   deterministic no matter which domain runs the attempt. *)
let run_with_fault t ~fuel ~key f x =
  (match t.fault with
  | Raise_once { key = k } when k = key ->
    let fire =
      locked t (fun () ->
          let n = Option.value ~default:0 (Hashtbl.find_opt t.raised_for k) in
          Hashtbl.replace t.raised_for k (n + 1);
          n = 0)
    in
    if fire then raise (Injected k)
  | Raise_always { key = k } when k = key -> raise (Injected k)
  | Hang { key = k } when k = key ->
    (* a runaway scenario: burns fuel forever, so the only way out is
       the watchdog tripping [Out_of_fuel] *)
    while true do
      Fuel.burn fuel
    done
  | _ -> ());
  f ~fuel x

let exec t ~key f x =
  let rec attempt n =
    let fuel = Fuel.make t.fuel_budget in
    match run_with_fault t ~fuel ~key f x with
    | v ->
      if n > 1 then
        locked t (fun () ->
            t.s_retried <- t.s_retried + 1;
            warn t
              (Printf.sprintf
                 "task %d succeeded on attempt %d (retried deterministically)"
                 key n));
      Ok v
    | exception Fuel.Out_of_fuel { budget } ->
      (* deterministic tasks would only spin again: no retry *)
      Error (Fuel_exhausted { key; budget })
    | exception e ->
      if n <= t.retries then begin
        (* Back off before retrying: transient failures (a peer
           restarting, a descriptor limit) deserve breathing room, and
           the deterministic schedule keeps retried runs reproducible.
           Tasks are pure, so the delay can never change a result. *)
        (match t.backoff with
        | Some (base, cap) ->
          let d = backoff_delay ~base ~cap n in
          if d > 0. then Unix.sleepf d
        | None -> ());
        attempt (n + 1)
      end
      else
        Error
          (Task_raised { key; attempts = n; message = Printexc.to_string e })
  in
  let r = attempt 1 in
  locked t (fun () ->
      t.s_total <- t.s_total + 1;
      match r with
      | Ok _ -> t.s_ok <- t.s_ok + 1
      | Error e ->
        t.s_failed <- t.s_failed + 1;
        warn t (task_error_to_string e));
  r

(* ------------------------------------------------------------------ *)
(* Fan-out                                                              *)

type 'a slot = Run of int * 'a | Dup of int

let run (type a b) (t : t) ?label:_ ~(key : a -> int)
    (f : fuel:Fuel.t -> a -> b) (xs : a list) :
    (b, task_error) result list =
  let tagged = List.map (fun x -> (key x, x)) xs in
  let n_real = List.length tagged in
  (* the duplicate fault re-enqueues one already-submitted task, the way
     a buggy resume path would *)
  let tagged =
    match t.fault with
    | Duplicate { key = k } -> (
      match List.find_opt (fun (k', _) -> k' = k) tagged with
      | Some item -> tagged @ [ item ]
      | None -> tagged)
    | _ -> tagged
  in
  (* duplicate detection happens at submission time, in input order, so
     which occurrence runs is deterministic: always the first *)
  let seen = Hashtbl.create (List.length tagged) in
  let slots =
    List.map
      (fun (k, x) ->
        if Hashtbl.mem seen k then Dup k
        else begin
          Hashtbl.add seen k ();
          Run (k, x)
        end)
      tagged
  in
  let jobs =
    List.filter_map (function Run (k, x) -> Some (k, x) | Dup _ -> None) slots
  in
  let job_results =
    let go (k, x) = exec t ~key:k f x in
    match t.pool with Some p -> Pool.map p go jobs | None -> List.map go jobs
  in
  let results = Hashtbl.create (List.length jobs) in
  List.iter2 (fun (k, _) r -> Hashtbl.replace results k r) jobs job_results;
  let settled =
    List.map
      (function
        | Run (k, _) -> Hashtbl.find results k
        | Dup k ->
          locked t (fun () ->
              t.s_total <- t.s_total + 1;
              t.s_duplicates <- t.s_duplicates + 1;
              warn t (task_error_to_string (Duplicate_submission { key = k })));
          Error (Duplicate_submission { key = k }))
      slots
  in
  (* drop the injected duplicate's slot: callers get one result per
     input element; the detection lives on in the summary *)
  List.filteri (fun i _ -> i < n_real) settled

(* ------------------------------------------------------------------ *)
(* Checkpointing through the supervisor, so the torn-write fault can be
   injected at the engine level                                         *)

let checkpoint_save t ~path payload =
  let fault = match t.fault with Torn_checkpoint -> Some `Torn | _ -> None in
  Checkpoint.save ?fault ~path payload
