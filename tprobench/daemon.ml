(* A real `tpro serve` daemon as a child process: spawn it, wait until it
   answers on its socket, read its counters, stop it. *)

module Client = Tpro_serve.Client

type t = { pid : int; socket : string }

(* Daemons not yet stopped, killed by [kill_all] if the run fails. *)
let live : int list ref = ref []

let alive pid = List.mem pid !live

let reap pid =
  live := List.filter (( <> ) pid) !live;
  snd (Unix.waitpid [] pid)

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
    live := List.filter (( <> ) pid) !live;
    true

(* Spawn and block until the daemon answers a stats request; returns the
   daemon and the seconds that took. *)
let start ~tpro ~dir ?(resume = false) () =
  Util.mkdir_p dir;
  (* relative to the working directory: Unix socket paths are limited to
     ~100 bytes and the checkout may sit deep in the tree *)
  let socket = Filename.concat dir "serve.sock" and journal = Filename.concat dir "journal" in
  let args =
    [ tpro; "serve"; "--socket"; socket; "--journal"; journal ]
    @ if resume then [ "--resume" ] else []
  in
  let t0 = Util.now () in
  let log =
    Unix.openfile (Filename.concat dir "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process tpro (Array.of_list args) devnull devnull log
  in
  Unix.close log;
  Unix.close devnull;
  live := pid :: !live;
  let rec wait () =
    match Client.server_stats ~socket with
    | Ok _ -> Util.now () -. t0
    | Error _ ->
      if exited pid then failwith "tpro serve exited before it was ready"
      else if Util.now () -. t0 > 60. then failwith "tpro serve not ready within 60 s"
      else begin
        Unix.sleepf 0.001;
        wait ()
      end
  in
  let ready = wait () in
  ({ pid; socket }, ready)

let stats d =
  match Client.server_stats ~socket:d.socket with
  | Ok kvs -> kvs
  | Error e -> failwith ("serve stats: " ^ e)

let stat d key =
  match List.assoc_opt key (stats d) with
  | Some v -> int_of_string v
  | None -> failwith ("serve stats lack " ^ key)

(* Graceful stop; waits for the process to end. *)
let stop d =
  (match Client.shutdown_server ~socket:d.socket with
  | Ok () -> ()
  | Error _ -> Unix.kill d.pid Sys.sigterm);
  match reap d.pid with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "tpro serve did not exit cleanly"

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid))
    !live
