(* The serve daemon: one single-threaded select loop owning every
   connection, with campaign jobs executed in batches on the shared
   supervised pool between I/O rounds.

   Durability discipline: journal appends accumulate during a read
   phase; one group fsync covers the round; acknowledgements are staged
   and only enqueued onto sockets after that sync.  Completion records
   sync before their results are delivered.  So everything a client has
   seen is already on disk — a SIGKILL at any instant is recoverable. *)

module Frame = Tpro_engine.Frame
module Supervisor = Tpro_engine.Supervisor
module Fuel = Supervisor.Fuel

type fault =
  | No_fault
  | Torn_result_frame
  | Drop_after_accept
  | Torn_journal_crash
  | Spawn_failure

type config = {
  socket : string;
  journal : string option;
  resume : bool;
  queue_max : int;
  default_deadline : int;
  retries : int;
  backoff : (float * float) option;
  domains : int option;
  batch : int;
  outq_limit : int;
  fault : fault;
}

let default_config ~socket =
  {
    socket;
    journal = None;
    resume = false;
    queue_max = 65536;
    default_deadline = 50_000_000;
    retries = 1;
    backoff = Some (0.05, 1.0);
    domains = None;
    batch = 32;
    outq_limit = 1024 * 1024;
    fault = No_fault;
  }

type stats = {
  accepted : int;
  completed : int;
  failed : int;
  busy_rejections : int;
  idempotent_hits : int;
  executed : int;
  tenants : int;
  recovered_jobs : int;
  recovered_results : int;
  degraded : bool;
  notes : string list;
}

(* ------------------------------------------------------------------ *)
(* State                                                                *)

type conn = {
  fd : Unix.file_descr;
  dec : Frame.Decoder.t;
  outq : string Queue.t;  (** encoded frames; head may be part-written *)
  mutable out_off : int;
  mutable out_bytes : int;
  mutable tenant : string option;
  mutable closing : bool;  (** flush the outq, then close *)
  mutable dead : bool;
}

type entry = {
  job : Job.t;
  owner : string;
  mutable state : [ `Queued | `Done of Wire.outcome ];
}

type tenant = {
  name : string;
  pending : entry Queue.t;
  undelivered : string Queue.t;  (** completed job ids awaiting delivery *)
  mutable in_rr : bool;
  mutable conn : conn option;
}

type server = {
  cfg : config;
  listen_fd : Unix.file_descr;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  tenants : (string, tenant) Hashtbl.t;
  rr : string Queue.t;  (** round-robin rotation of tenants with work *)
  jobs : (string, entry) Hashtbl.t;
  journal : Journal.t option;
  sup : Supervisor.t;
  mutable staged : (conn * Wire.response) list;  (** reversed *)
  mutable pending_total : int;
  mutable accepted : int;
  mutable completed : int;
  mutable failed : int;
  mutable busy : int;
  mutable idem : int;
  mutable executed : int;
  recovered_jobs : int;
  recovered_results : int;
  mutable notes : string list;  (** reversed *)
  mutable stop : bool;
  mutable stop_rounds : int;
  mutable fault_fired : bool;
}

exception Crash
(* Torn_journal_crash's exit: unwind without flushing or delivering,
   exactly as a power cut after the torn write would. *)

let note srv line = srv.notes <- line :: srv.notes

let tenant_of srv name =
  match Hashtbl.find_opt srv.tenants name with
  | Some t -> t
  | None ->
    let t =
      {
        name;
        pending = Queue.create ();
        undelivered = Queue.create ();
        in_rr = false;
        conn = None;
      }
    in
    Hashtbl.replace srv.tenants name t;
    t

let enqueue_job srv t e =
  Queue.push e t.pending;
  srv.pending_total <- srv.pending_total + 1;
  if not t.in_rr then begin
    t.in_rr <- true;
    Queue.push t.name srv.rr
  end

let close_conn srv conn =
  if not conn.dead then begin
    conn.dead <- true;
    Hashtbl.remove srv.conns conn.fd;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    match conn.tenant with
    | None -> ()
    | Some name -> (
      match Hashtbl.find_opt srv.tenants name with
      | Some t -> (
        match t.conn with Some c when c == conn -> t.conn <- None | _ -> ())
      | None -> ())
  end

let enqueue_raw conn frame =
  if not conn.dead then begin
    Queue.push frame conn.outq;
    conn.out_bytes <- conn.out_bytes + String.length frame
  end

let stage srv conn resp = srv.staged <- (conn, resp) :: srv.staged

(* Group commit: one fsync covers every append of the round, then the
   staged acknowledgements (now durable) hit the sockets in order. *)
let commit_staged srv =
  (match srv.journal with Some j -> Journal.sync j | None -> ());
  List.iter
    (fun (conn, resp) -> enqueue_raw conn (Wire.encode_response resp))
    (List.rev srv.staged);
  srv.staged <- []

(* ------------------------------------------------------------------ *)
(* Request handling (read phase)                                        *)

let stats_kvs srv =
  [
    ("proto", string_of_int Wire.version);
    ("accepted", string_of_int srv.accepted);
    ("completed", string_of_int srv.completed);
    ("failed", string_of_int srv.failed);
    ("busy", string_of_int srv.busy);
    ("pending", string_of_int srv.pending_total);
    ("executed", string_of_int srv.executed);
    ("idempotent", string_of_int srv.idem);
    ("tenants", string_of_int (Hashtbl.length srv.tenants));
    ("recovered_jobs", string_of_int srv.recovered_jobs);
    ("recovered_results", string_of_int srv.recovered_results);
    ("degraded", string_of_bool (Supervisor.degraded srv.sup));
  ]

let handle_request srv conn = function
  | Wire.Hello name ->
    let t = tenant_of srv name in
    (match t.conn with
    | Some old when old != conn && not old.dead -> old.closing <- true
    | _ -> ());
    t.conn <- Some conn;
    conn.tenant <- Some name;
    stage srv conn (Wire.Welcome Wire.version)
  | Wire.Ping -> stage srv conn Wire.Pong
  | Wire.Get_stats -> stage srv conn (Wire.Stats_reply (stats_kvs srv))
  | Wire.Shutdown ->
    stage srv conn Wire.Bye;
    srv.stop <- true
  | Wire.Submit job -> (
    match conn.tenant with
    | None ->
      stage srv conn (Wire.Error_msg "submit before hello");
      conn.closing <- true
    | Some owner -> (
      match Hashtbl.find_opt srv.jobs job.Job.id with
      | Some e -> (
        (* Idempotency: the id is the key; never run twice. *)
        srv.idem <- srv.idem + 1;
        match e.state with
        | `Done outcome -> stage srv conn (Wire.Result { id = job.Job.id; outcome })
        | `Queued -> stage srv conn (Wire.Accepted job.Job.id))
      | None ->
        if srv.pending_total >= srv.cfg.queue_max then begin
          srv.busy <- srv.busy + 1;
          let retry_after_ms = max 10 (min 5000 (srv.pending_total / 8)) in
          stage srv conn
            (Wire.Busy
               { id = job.Job.id; retry_after_ms; queued = srv.pending_total })
        end
        else begin
          let deadline =
            if job.Job.deadline = 0 then srv.cfg.default_deadline
            else job.Job.deadline
          in
          let job = { job with Job.deadline } in
          let e = { job; owner; state = `Queued } in
          Hashtbl.replace srv.jobs job.Job.id e;
          enqueue_job srv (tenant_of srv owner) e;
          (match srv.journal with
          | Some j -> Journal.append j (Journal.Accepted { job; tenant = owner })
          | None -> ());
          srv.accepted <- srv.accepted + 1;
          stage srv conn (Wire.Accepted job.Job.id);
          if srv.cfg.fault = Drop_after_accept && not srv.fault_fired then begin
            srv.fault_fired <- true;
            note srv "fault: dropped a connection right after an accept";
            conn.closing <- true
          end
        end))

let rec drain_frames srv conn =
  if (not conn.closing) && not conn.dead then
    match Frame.Decoder.pop conn.dec with
    | Ok None -> ()
    | Ok (Some payload) ->
      (match Wire.request_of_payload payload with
      | Ok req -> handle_request srv conn req
      | Error e ->
        stage srv conn (Wire.Error_msg ("bad request: " ^ e));
        conn.closing <- true);
      drain_frames srv conn
    | Error e ->
      stage srv conn (Wire.Error_msg ("bad frame: " ^ Frame.error_to_string e));
      conn.closing <- true

let read_conn srv conn buf =
  let continue = ref true in
  while !continue && (not conn.closing) && not conn.dead do
    match Unix.read conn.fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error _ ->
      close_conn srv conn;
      continue := false
    | 0 ->
      close_conn srv conn;
      continue := false
    | n ->
      Frame.Decoder.feed conn.dec (Bytes.sub_string buf 0 n);
      drain_frames srv conn
  done

(* ------------------------------------------------------------------ *)
(* Scheduling and execution                                             *)

(* One job per tenant per pass: a tenant with work left rotates to the
   back of the ring, so a huge tenant interleaves with small ones. *)
let pick_batch srv =
  let acc = ref [] in
  let n = ref 0 in
  let continue = ref true in
  while !continue && !n < srv.cfg.batch do
    if Queue.is_empty srv.rr then continue := false
    else begin
      let name = Queue.pop srv.rr in
      let t = tenant_of srv name in
      if Queue.is_empty t.pending then t.in_rr <- false
      else begin
        let e = Queue.pop t.pending in
        srv.pending_total <- srv.pending_total - 1;
        incr n;
        acc := e :: !acc;
        if Queue.is_empty t.pending then t.in_rr <- false
        else Queue.push name srv.rr
      end
    end
  done;
  List.rev !acc

let outcome_of_settled = function
  | Ok (Ok payload) -> Ok payload
  | Ok (Error reason) -> Error (Wire.Rejected, reason)
  | Error (Supervisor.Fuel_exhausted { budget; _ }) ->
    Error
      (Wire.Deadline, Printf.sprintf "deadline: fuel budget %d exhausted" budget)
  | Error (Supervisor.Task_raised { attempts; message; _ }) ->
    Error
      ( Wire.Raised,
        Printf.sprintf "raised after %d attempt%s: %s" attempts
          (if attempts = 1 then "" else "s")
          message )
  | Error (Supervisor.Duplicate_submission _) ->
    Error (Wire.Raised, "internal: duplicate batch key")

let run_batch srv =
  let picked = pick_batch srv in
  if picked <> [] then begin
    srv.executed <- srv.executed + List.length picked;
    let tasks = List.mapi (fun i e -> (i, e)) picked in
    let settled =
      Supervisor.run srv.sup ~key:fst
        (fun ~fuel:_ (_, e) ->
          (* Each attempt runs under its own gauge sized to the job's
             deadline; the supervisor maps the trip to Fuel_exhausted. *)
          let gauge = Fuel.make (Some e.job.Job.deadline) in
          Job.execute ~fuel:gauge e.job.Job.kind)
        tasks
    in
    List.iter2
      (fun e settled ->
        let outcome = outcome_of_settled settled in
        (match srv.journal with
        | Some j ->
          let r = Journal.Done { id = e.job.Job.id; outcome } in
          if srv.cfg.fault = Torn_journal_crash && not srv.fault_fired then begin
            srv.fault_fired <- true;
            Journal.append_torn j r;
            Journal.sync j;
            raise Crash
          end
          else Journal.append j r
        | None -> ());
        e.state <- `Done outcome;
        srv.completed <- srv.completed + 1;
        (match outcome with
        | Error _ -> srv.failed <- srv.failed + 1
        | Ok _ -> ());
        Queue.push e.job.Job.id (tenant_of srv e.owner).undelivered)
      picked settled;
    match srv.journal with Some j -> Journal.sync j | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Delivery (with backpressure)                                         *)

let deliver_one srv conn id =
  match (Hashtbl.find_opt srv.jobs id : entry option) with
  | Some { state = `Done outcome; _ } ->
    let resp = Wire.Result { id; outcome } in
    if srv.cfg.fault = Torn_result_frame && not srv.fault_fired then begin
      srv.fault_fired <- true;
      note srv "fault: tore a result frame mid-payload";
      enqueue_raw conn
        (Frame.encode_torn ~magic:Wire.magic ~version:Wire.version
           (Wire.response_to_payload resp));
      (* close after the tear so the client sees EOF mid-frame *)
      conn.closing <- true
    end
    else enqueue_raw conn (Wire.encode_response resp)
  | _ -> ()

(* Push parked results while the connection's write queue is under the
   cap.  Results beyond the cap stay parked: a slow reader only delays
   itself, never the pool or other tenants. *)
let try_deliver srv t =
  match t.conn with
  | None -> ()
  | Some conn ->
    if (not conn.dead) && not conn.closing then begin
      let continue = ref true in
      while
        !continue
        && (not (Queue.is_empty t.undelivered))
        && conn.out_bytes < srv.cfg.outq_limit
        && not conn.closing
      do
        deliver_one srv conn (Queue.pop t.undelivered);
        if conn.dead then continue := false
      done
    end

(* ------------------------------------------------------------------ *)
(* Writes                                                               *)

let flush_conn srv conn =
  let continue = ref true in
  while !continue && (not conn.dead) && not (Queue.is_empty conn.outq) do
    let head = Queue.peek conn.outq in
    let len = String.length head - conn.out_off in
    match Unix.write_substring conn.fd head conn.out_off len with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error _ ->
      close_conn srv conn;
      continue := false
    | n ->
      conn.out_bytes <- conn.out_bytes - n;
      if n = len then begin
        ignore (Queue.pop conn.outq);
        conn.out_off <- 0
      end
      else conn.out_off <- conn.out_off + n
  done;
  if (not conn.dead) && conn.closing && Queue.is_empty conn.outq then
    close_conn srv conn

(* ------------------------------------------------------------------ *)
(* Startup: journal replay                                              *)

let replay srv records =
  let requeued = ref 0 in
  let replayed = ref 0 in
  List.iter
    (function
      | Journal.Accepted { job; tenant } ->
        if not (Hashtbl.mem srv.jobs job.Job.id) then
          Hashtbl.replace srv.jobs job.Job.id
            { job; owner = tenant; state = `Queued }
      | Journal.Done { id; outcome } -> (
        match Hashtbl.find_opt srv.jobs id with
        | Some e ->
          if e.state = `Queued then incr replayed;
          e.state <- `Done outcome
        | None -> note srv ("journal: completion for unknown job " ^ id)))
    records;
  (* Unfinished jobs re-queue in their original accept order; finished
     ones park for delivery when their tenant reconnects. *)
  List.iter
    (function
      | Journal.Accepted { job; tenant } -> (
        match Hashtbl.find_opt srv.jobs job.Job.id with
        | Some ({ state = `Queued; _ } as e) ->
          incr requeued;
          enqueue_job srv (tenant_of srv tenant) e
        | Some { state = `Done _; _ } ->
          Queue.push job.Job.id (tenant_of srv tenant).undelivered
        | None -> ())
      | Journal.Done _ -> ())
    records;
  (!requeued, !replayed)

(* ------------------------------------------------------------------ *)
(* The loop                                                             *)

let all_conns srv = Hashtbl.fold (fun _ c acc -> c :: acc) srv.conns []

let accept_loop srv =
  let continue = ref true in
  while !continue do
    match Unix.accept srv.listen_fd with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error _ -> continue := false
    | fd, _ ->
      Unix.set_nonblock fd;
      let conn =
        {
          fd;
          dec = Wire.decoder ();
          outq = Queue.create ();
          out_off = 0;
          out_bytes = 0;
          tenant = None;
          closing = false;
          dead = false;
        }
      in
      Hashtbl.replace srv.conns fd conn
  done

let drained srv =
  srv.staged = []
  && Hashtbl.fold (fun _ c acc -> acc && Queue.is_empty c.outq) srv.conns true

let loop srv =
  let buf = Bytes.create 65536 in
  (* After a shutdown request: flush what clients are owed, with a
     bounded number of grace rounds so a vanished client cannot wedge
     the exit. *)
  while (not (srv.stop && drained srv)) && not (srv.stop && srv.stop_rounds > 400)
  do
    if srv.stop then srv.stop_rounds <- srv.stop_rounds + 1;
    let conns = all_conns srv in
    let rfds =
      (if srv.stop then [] else [ srv.listen_fd ])
      @ List.filter_map
          (fun c -> if c.closing then None else Some c.fd)
          conns
    in
    let wfds =
      List.filter_map
        (fun c -> if Queue.is_empty c.outq then None else Some c.fd)
        conns
    in
    let timeout =
      if srv.pending_total > 0 && not srv.stop then 0.0
      else if srv.stop then 0.02
      else 0.25
    in
    (match Unix.select rfds wfds [] timeout with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, _, _ ->
      if List.mem srv.listen_fd readable then accept_loop srv;
      List.iter
        (fun fd ->
          if fd != srv.listen_fd then
            match Hashtbl.find_opt srv.conns fd with
            | Some c -> read_conn srv c buf
            | None -> ())
        readable);
    commit_staged srv;
    if (not srv.stop) && srv.pending_total > 0 then run_batch srv;
    Hashtbl.iter (fun _ t -> try_deliver srv t) srv.tenants;
    List.iter
      (fun c -> if (not c.dead) && not (Queue.is_empty c.outq) then flush_conn srv c)
      (all_conns srv)
  done

let run ?(on_ready = fun () -> ()) cfg =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | (_ : Sys.signal_behavior) -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ());
  if Sys.file_exists cfg.socket then (
    try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let journal, recovery =
    match cfg.journal with
    | None -> (None, None)
    | Some path ->
      let j, r = Journal.open_ ~path ~resume:cfg.resume in
      (Some j, Some r)
  in
  let sup =
    Supervisor.create ?domains:cfg.domains ~retries:cfg.retries
      ?backoff:cfg.backoff
      ~fault:
        (if cfg.fault = Spawn_failure then Supervisor.Spawn_failure
         else Supervisor.No_fault)
      ()
  in
  let srv =
    {
      cfg;
      listen_fd;
      conns = Hashtbl.create 16;
      tenants = Hashtbl.create 16;
      rr = Queue.create ();
      jobs = Hashtbl.create 1024;
      journal;
      sup;
      staged = [];
      pending_total = 0;
      accepted = 0;
      completed = 0;
      failed = 0;
      busy = 0;
      idem = 0;
      executed = 0;
      recovered_jobs = 0;
      recovered_results = 0;
      notes = [];
      stop = false;
      stop_rounds = 0;
      fault_fired = false;
    }
  in
  let srv =
    match recovery with
    | None -> srv
    | Some (r : Journal.recovery) ->
      List.iter (note srv) r.notes;
      let requeued, replayed = replay srv r.records in
      { srv with recovered_jobs = requeued; recovered_results = replayed }
  in
  on_ready ();
  let abrupt =
    match loop srv with
    | () -> false
    | exception Crash ->
      note srv "fault: simulated crash after a torn completion record";
      true
  in
  List.iter (fun c -> try Unix.close c.fd with _ -> ()) (all_conns srv);
  (try Unix.close srv.listen_fd with _ -> ());
  (match srv.journal with
  | Some j when not abrupt -> Journal.close j
  | _ -> ());
  Supervisor.shutdown srv.sup;
  if not abrupt then (
    try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let summary = Supervisor.summary srv.sup in
  List.iter (note srv) summary.Supervisor.warnings;
  {
    accepted = srv.accepted;
    completed = srv.completed;
    failed = srv.failed;
    busy_rejections = srv.busy;
    idempotent_hits = srv.idem;
    executed = srv.executed;
    tenants = Hashtbl.length srv.tenants;
    recovered_jobs = srv.recovered_jobs;
    recovered_results = srv.recovered_results;
    degraded = Supervisor.degraded srv.sup;
    notes = List.rev srv.notes;
  }
