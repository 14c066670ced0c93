type t = {
  counters : int array; (* 2-bit saturating counters — flat, unboxed *)
  mutable history : int;
  history_mask : int;
  table_mask : int;
  mutable digest_cache : int64;
  mutable digest_clean : bool;
  mutable pristine : bool; (* exactly the power-on state: flush is O(1) *)
  empty_digest : int64;
  moved : int array;
      (* indices of counters moved off the power-on value since the last
         flush, in order; a flush resets only these *)
  mutable n_moved : int; (* > [Array.length moved]: the log overflowed *)
}

(* Counters power on weakly not-taken. *)
let power_on = 1

(* A time slice of the topology campaigns moves at most 16 counters
   (seed 17, 200 topologies); a slice that moves more than the log holds
   makes the next flush reset the whole table.  The log is per core of
   every machine, so it is kept short. *)
let moved_log = 32

(* The digest chain covers history and every counter, so it is memoised
   and staled only by updates that actually move a counter or the
   history register — a fully-trained (saturated, history-stable) branch
   stream leaves the cached digest valid. *)
let compute_digest ~history counters =
  let acc = ref (Int64.of_int (history + 7)) in
  for i = 0 to Array.length counters - 1 do
    acc := Rng.chain_int !acc (Array.unsafe_get counters i)
  done;
  !acc

(* Empty-state digest interned per table size: all counters at 1,
   history 0 — paid once per size per process, not per create/flush. *)
let empty_memo : (int, int64) Hashtbl.t = Hashtbl.create 4
let empty_memo_lock = Mutex.create ()

let empty_digest_for n =
  Mutex.lock empty_memo_lock;
  let d =
    match Hashtbl.find_opt empty_memo n with
    | Some d -> d
    | None ->
      let acc = ref 7L in
      for _ = 1 to n do
        acc := Rng.chain_int !acc power_on
      done;
      Hashtbl.replace empty_memo n !acc;
      !acc
  in
  Mutex.unlock empty_memo_lock;
  d

let create ?(history_bits = 8) ?(table_bits = 10) () =
  if history_bits < 1 || history_bits > 20 then
    invalid_arg "Bpred.create: history_bits out of range";
  if table_bits < 2 || table_bits > 20 then
    invalid_arg "Bpred.create: table_bits out of range";
  let n = 1 lsl table_bits in
  let empty_digest = empty_digest_for n in
  {
    counters = Array.make n power_on;
    history = 0;
    history_mask = (1 lsl history_bits) - 1;
    table_mask = n - 1;
    digest_cache = empty_digest;
    digest_clean = true;
    pristine = true;
    empty_digest;
    moved = Array.make moved_log 0;
    n_moved = 0;
  }

let index t ~pc = ((pc lsr 2) lxor t.history) land t.table_mask

let predict t ~pc = t.counters.(index t ~pc) >= 2

(* Every counter off its power-on value left it at some update since the
   last flush, and that update logged it: the log (unless it overflowed)
   covers every counter a flush must reset. *)
let update t ~pc ~taken =
  let i = index t ~pc in
  let predicted = t.counters.(i) >= 2 in
  let c = t.counters.(i) in
  let c' = if taken then min 3 (c + 1) else max 0 (c - 1) in
  let h' = ((t.history lsl 1) lor (if taken then 1 else 0)) land t.history_mask in
  if c' <> c || h' <> t.history then begin
    if c = power_on && c' <> c then begin
      let n = t.n_moved in
      if n < moved_log then Array.unsafe_set t.moved n i;
      if n <= moved_log then t.n_moved <- n + 1
    end;
    t.counters.(i) <- c';
    t.history <- h';
    t.digest_clean <- false;
    t.pristine <- false
  end;
  predicted = taken

let flush t =
  if not t.pristine then begin
    if t.n_moved > moved_log then
      Array.fill t.counters 0 (Array.length t.counters) power_on
    else
      for k = 0 to t.n_moved - 1 do
        Array.unsafe_set t.counters (Array.unsafe_get t.moved k) power_on
      done;
    t.n_moved <- 0;
    t.history <- 0;
    t.digest_cache <- t.empty_digest;
    t.digest_clean <- true;
    t.pristine <- true
  end

let digest t =
  if not t.digest_clean then begin
    t.digest_cache <- compute_digest ~history:t.history t.counters;
    t.digest_clean <- true
  end;
  t.digest_cache

let digest_fold t = compute_digest ~history:t.history t.counters

let pp ppf t =
  Format.fprintf ppf "bpred: %d counters, history=%#x"
    (Array.length t.counters) t.history
