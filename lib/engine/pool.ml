(* Domain pool with one scheduling path.

   Topology: [size - 1] worker domains plus whoever calls [map].  Each
   [map] call is one job: its items in an array, an atomic next-index
   and an atomic countdown of unsettled items.  The job joins the end
   of the pool's FIFO of open jobs (a job is open while it has an
   unclaimed item).  Workers and waiting callers run the same loop:
   claim one item of the oldest open job with a fetch-and-add on its
   next-index, run it, repeat.  A worker sleeps only when no job is
   open; a caller sleeps only when no job is open while its own
   countdown is still above zero.  A pool whose workers are gone
   (size 1, or after [shutdown]) degrades to plain in-order [List.map].

   Oldest-first is what lets nested maps make progress without any
   stealing: a worker that maps inside an item helps the outer job's
   remaining items before its own, so the outer fan-out keeps every
   domain busy and the inner jobs are picked up as they open.

   Sleeping and waking go through one mutex and condition variable.
   The list of open jobs only changes under the mutex, so a domain
   that finds it empty under the mutex cannot miss the broadcast that
   follows the next job's arrival.  The last item of a job to settle
   also broadcasts under the mutex, which is the wakeup its caller
   waits for.

   Determinism: item [k] writes slot [k] of the job's result array,
   and the caller assembles slots in index order once the countdown
   hits zero, so which domain ran which item never affects results,
   only timing.  The atomic countdown also publishes the plain slot
   writes to the assembling domain.

   Failure semantics: every item settles, raising or not; then the
   lowest-indexed failure is re-raised — exactly the exception a
   sequential left-to-right map would have raised first. *)

type job = {
  items : int;
  run : int -> unit;  (** settle item [k] into slot [k] *)
  next : int Atomic.t;  (** the next unclaimed item *)
  pending : int Atomic.t;  (** items not yet settled *)
}

type t = {
  id : int;
  size : int;
  mutex : Mutex.t;
  wake : Condition.t;
  jobs : job list Atomic.t;  (** open jobs, oldest first; set under [mutex] *)
  stop : bool Atomic.t;
  mutable workers : unit Domain.t array;
  executed : int Atomic.t;
  injected : int Atomic.t;
  minor_heap_words : int option;
}

type stats = {
  pool_size : int;
  spawned_domains : int;
  steals : int;
  tasks_executed : int;
  tasks_injected : int;
  minor_heap_words : int option;
}

let next_id = Atomic.make 0

(* Which pool is this domain a worker of?  Only items submitted from
   outside the pool count as injected. *)
let worker_of : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let recommended () = Calibrate.recommended ()

let no_open_job pool = match Atomic.get pool.jobs with [] -> true | _ :: _ -> false

(* Claim one item of the oldest open job, retiring jobs found with no
   unclaimed item left. *)
let rec claim pool =
  match Atomic.get pool.jobs with
  | [] -> None
  | j :: _ ->
    let k = Atomic.fetch_and_add j.next 1 in
    if k < j.items then Some (j, k)
    else begin
      Mutex.protect pool.mutex (fun () ->
          Atomic.set pool.jobs (List.filter (fun j' -> j' != j) (Atomic.get pool.jobs)));
      claim pool
    end

(* The one loop, for workers and waiting callers alike: run items until
   [until ()] holds, sleeping only while no job is open. *)
let rec help pool ~until =
  if not (until ()) then begin
    (match claim pool with
    | Some (j, k) ->
      j.run k;
      Atomic.incr pool.executed;
      if Atomic.fetch_and_add j.pending (-1) = 1 then
        Mutex.protect pool.mutex (fun () -> Condition.broadcast pool.wake)
    | None ->
      Mutex.protect pool.mutex (fun () ->
          if no_open_job pool && not (until ()) then
            Condition.wait pool.wake pool.mutex));
    help pool ~until
  end

let worker_loop (pool : t) () =
  Option.iter Calibrate.apply_minor_heap pool.minor_heap_words;
  Domain.DLS.set worker_of (Some pool.id);
  (* At shutdown a worker exits once no job is open; a caller still
     waiting on its countdown runs whatever items remain. *)
  help pool ~until:(fun () -> Atomic.get pool.stop && no_open_job pool)

(* Ask the workers to exit; [true] for the call that asked first. *)
let signal_stop pool =
  Mutex.protect pool.mutex (fun () ->
      let first = not (Atomic.exchange pool.stop true) in
      Condition.broadcast pool.wake;
      first)

(* Spawn all workers, or clean up whatever was spawned before the
   failure: a half-built pool must not leak running domains. *)
let spawn_workers pool =
  let spawned = ref [] in
  match
    for _ = 2 to pool.size do
      spawned := Domain.spawn (worker_loop pool) :: !spawned
    done
  with
  | () -> Ok (Array.of_list !spawned)
  | exception e ->
    ignore (signal_stop pool);
    List.iter Domain.join !spawned;
    Error (Printexc.to_string e)

let fresh ?minor_heap_words size =
  {
    id = Atomic.fetch_and_add next_id 1;
    size;
    mutex = Mutex.create ();
    wake = Condition.create ();
    jobs = Atomic.make [];
    stop = Atomic.make false;
    workers = [||];
    executed = Atomic.make 0;
    injected = Atomic.make 0;
    minor_heap_words;
  }

(* Default sizing is calibrated; an explicit [~domains] is honoured
   verbatim (tests rely on forcing 4 domains on a 1-core host) and
   leaves the minor heap alone unless asked. *)
let resolve ?domains ?minor_heap_words () =
  match domains with
  | Some d -> (max 1 d, minor_heap_words)
  | None ->
    let h = Calibrate.host () in
    let mh =
      match minor_heap_words with
      | Some _ -> minor_heap_words
      | None ->
        if h.Calibrate.recommended > 1 then Some h.Calibrate.minor_heap_words
        else None
    in
    (h.Calibrate.recommended, mh)

let create_opt ?domains ?minor_heap_words () =
  let size, mh = resolve ?domains ?minor_heap_words () in
  let pool = fresh ?minor_heap_words:mh size in
  if size <= 1 then Ok pool
  else
    Result.map
      (fun ws ->
        pool.workers <- ws;
        pool)
      (spawn_workers pool)

let create ?domains ?minor_heap_words () =
  match create_opt ?domains ?minor_heap_words () with
  | Ok pool -> pool
  | Error msg -> failwith ("Pool.create: cannot spawn workers: " ^ msg)

let size t = t.size

let map pool f xs =
  match xs with
  | [] -> []
  | _ when Array.length pool.workers = 0 ->
    (* Sequential fallback: left-to-right, first failure raises —
       byte-identical results to the parallel path. *)
    List.map f xs
  | _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let slots = Array.make n None in
    let job =
      {
        items = n;
        run = (fun k -> slots.(k) <- Some (try Ok (f arr.(k)) with e -> Error e));
        next = Atomic.make 0;
        pending = Atomic.make n;
      }
    in
    if Domain.DLS.get worker_of <> Some pool.id then
      ignore (Atomic.fetch_and_add pool.injected n);
    Mutex.protect pool.mutex (fun () ->
        Atomic.set pool.jobs (Atomic.get pool.jobs @ [ job ]);
        Condition.broadcast pool.wake);
    help pool ~until:(fun () -> Atomic.get job.pending = 0);
    Array.iter (function Some (Error e) -> raise e | _ -> ()) slots;
    Array.fold_right
      (fun slot acc ->
        match slot with Some (Ok v) -> v :: acc | Some (Error _) | None -> assert false)
      slots []

let shutdown pool =
  if signal_stop pool then begin
    Array.iter Domain.join pool.workers;
    pool.workers <- [||]
  end

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let stats (pool : t) =
  {
    pool_size = pool.size;
    spawned_domains = Array.length pool.workers;
    steals = 0;
    tasks_executed = Atomic.get pool.executed;
    tasks_injected = Atomic.get pool.injected;
    minor_heap_words = pool.minor_heap_words;
  }
