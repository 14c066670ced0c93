open Tpro_hw
open Tpro_kernel

type divergence = { lo_step : int; component : string }

let hash_int64s = List.fold_left Rng.combine 0x11L

let obs_code = function
  | Event.Clock c -> Int64.of_int ((c lsl 2) lor 1)
  | Event.Latency l -> Int64.of_int ((l lsl 2) lor 2)
  | Event.Recv m -> Int64.of_int ((m lsl 2) lor 3)

let state_code = function
  | Thread.Ready -> 0
  | Thread.Blocked_send ep -> 4 + (ep lsl 2)
  | Thread.Blocked_recv ep -> 5 + (ep lsl 2)
  | Thread.Halted -> 2

(* Incremental observation-trace hash.

   [lo_view] hashes Lo's complete observation trace at every Lo
   instruction boundary; folding the whole trace each time is quadratic
   in trace length and dominated E7.  The hash combines one fold per
   thread, and observation lists are strictly append-only, so the memo
   keeps each thread's fold and extends it by only the observations
   recorded since the previous boundary — the returned value is
   bit-identical to the from-scratch [thread_hash] folds. *)
type obs_memo = {
  mutable m_threads : Thread.t list;
  mutable m_counts : int array;
  mutable m_accs : int64 array;  (** [m_accs.(i)]: thread [i]'s fold *)
}

let obs_memo () = { m_threads = []; m_counts = [||]; m_accs = [||] }

let rec take n = function
  | x :: r when n > 0 -> x :: take (n - 1) r
  | _ -> []

let fold_codes acc obs =
  List.fold_left (fun a o -> Rng.chain a (obs_code o)) acc obs

let thread_hash th = fold_codes 0x11L (Thread.observations th)

let obs_hash memo threads =
  if not (List.equal ( == ) threads memo.m_threads) then begin
    (* first call, or a spawn: fold every thread afresh *)
    memo.m_threads <- threads;
    memo.m_counts <- Array.of_list (List.map Thread.obs_count threads);
    memo.m_accs <- Array.of_list (List.map thread_hash threads)
  end
  else
    List.iteri
      (fun i th ->
        let count = Thread.obs_count th in
        if count <> memo.m_counts.(i) then begin
          (* the list is newest-first, so reverse the new tail *)
          memo.m_accs.(i) <-
            fold_codes memo.m_accs.(i)
              (List.rev
                 (take (count - memo.m_counts.(i))
                    (Thread.observations_rev th)));
          memo.m_counts.(i) <- count
        end)
      threads;
  Array.fold_left Rng.combine 0x11L memo.m_accs

let lo_view ?memo k ~lo_dom =
  let dom = Kernel.domain k lo_dom in
  let m = Kernel.machine k in
  let core = dom.Domain.core in
  let threads =
    hash_int64s
      (List.map
         (fun th ->
           Int64.of_int
             ((th.Thread.pc lsl 16)
             lxor (state_code th.Thread.state lsl 4)
             lxor th.Thread.msg))
         (Domain.threads dom))
  in
  let observations =
    match memo with
    | Some m -> obs_hash m (Domain.threads dom)
    | None -> hash_int64s (List.map thread_hash (Domain.threads dom))
  in
  (* Registry fold: Lo's view of the microarchitecture is one component
     per registered in-scope resource, named by its obligation
     ([flush:<r>] / [partition:<r>]) and valued by the resource's own
     Lo-projection ([Resource.lo_project] — the whole digest for a
     flushable resource, the Lo-coloured slice for a partitioned one).
     Out-of-scope resources contribute nothing here; their absence is
     what the composed theorem's acknowledgement machinery makes loud.
     Comparing per-resource projections is component-wise at least as
     strict as the old chained "core-private"/"llc-partition" digests,
     and a divergence now names the lemma that broke.  No memo is needed
     here: a flushable resource's projection is its own memoised digest,
     and the LLC slice walks only Lo's colours over per-set memos. *)
  let view =
    {
      Resource.lo_colours = dom.Domain.colours;
      page_bits = Kernel.page_bits k;
    }
  in
  let resources =
    List.filter_map
      (fun r ->
        match Resource.lemma_component r with
        | Some cid -> Some (cid, Resource.lo_project r view)
        | None -> None)
      (Machine.core_resources m ~core @ Machine.shared_resources m)
  in
  ("lo-threads", threads)
  :: ("lo-observations", observations)
  :: resources
  @ [ ("kernel:clock", Int64.of_int (Machine.now m ~core)) ]

(* Pacing: "Lo instruction boundary [k]" means the nominated observer
   domain has completed [k] instructions.  Only [lo_dom]'s threads are
   counted — an N-domain run's observer list spans every non-varied
   domain across all cores, and a cut placed by a *global* count lands
   at secret-dependent per-core positions (cross-core interleaving
   shifts inside the varied domain's slices), which would make even a
   leak-free topology's view sample mid-stream state at misaligned
   points.  In the legacy Hi/Lo runs every observer thread belongs to
   [lo_dom], so the filtered count is identical to the old global one. *)
let lo_count (run : Nonint.run) ~lo_dom =
  List.fold_left
    (fun acc th ->
      if th.Thread.dom = lo_dom then acc + Thread.cost_count th else acc)
    0 run.Nonint.observers

(* ------------------------------------------------------------------ *)
(* Sweeps, record then compare.  A sweep does not stop at the first
   divergence: the composed theorem attributes a failure to *every*
   lemma whose component broke, so it keeps the first Lo step at which
   each view component diverged. *)

let max_lo_steps = 20_000

(* [Kernel.run]'s step hook: [f k view] at each Lo boundary [k <= limit]
   the run has reached since the previous step, with Lo's view there. *)
let at_boundaries (run : Nonint.run) ~lo_dom ~limit f =
  let memo = obs_memo () and next = ref 1 in
  fun (_ : int) ->
    while !next <= limit && !next <= lo_count run ~lo_dom do
      f !next (lo_view ~memo run.Nonint.kernel ~lo_dom);
      incr next
    done

type record = {
  run : Nonint.run;
  lo_dom : int;
  mutable names : string array;  (** view component names, view order *)
  views : Buffer.t;  (** each boundary's component digests, int64 LE *)
}

let record ?lo_dom (run : Nonint.run) =
  let lo_dom =
    match (lo_dom, run.Nonint.observers) with
    | Some d, _ -> d
    | None, th :: _ -> th.Thread.dom
    | None, [] -> invalid_arg "Unwinding.record: no observers"
  in
  let r = { run; lo_dom; names = [||]; views = Buffer.create 4096 } in
  ( at_boundaries run ~lo_dom ~limit:max_lo_steps (fun _ view ->
        if r.names = [||] then r.names <- Array.of_list (List.map fst view);
        List.iter (fun (_, d) -> Buffer.add_int64_le r.views d) view),
    r )

type sweep = {
  run_a : Nonint.run;
  run_b : Nonint.run;
  components : string list;
  diverged : (string * int) list;
  progress : int option;
  boundaries : int;
}

let sweep_against r run =
  let n = Array.length r.names and views = Buffer.contents r.views in
  let recorded = if n = 0 then 0 else String.length views / (8 * n) in
  let seen = Array.make n false and diverged = ref [] and boundaries = ref 0 in
  let check_boundary k view =
    boundaries := k;
    List.iteri
      (fun i (name, d) ->
        let was = String.get_int64_le views (8 * (((k - 1) * n) + i)) in
        if (not seen.(i)) && not (Int64.equal d was) then begin
          seen.(i) <- true;
          diverged := (name, k) :: !diverged
        end)
      view
  in
  let result () =
    (* where the runs' final Lo counts differ, the shorter run's next
       boundary is the first one only the longer run reached *)
    let ra = lo_count r.run ~lo_dom:r.lo_dom
    and rb = lo_count run ~lo_dom:r.lo_dom in
    {
      run_a = r.run;
      run_b = run;
      components = (if !boundaries = 0 then [] else Array.to_list r.names);
      diverged = List.rev !diverged;
      progress =
        (if ra <> rb && min ra rb < max_lo_steps then Some (min ra rb + 1)
         else None);
      boundaries = !boundaries;
    }
  in
  (at_boundaries run ~lo_dom:r.lo_dom ~limit:recorded check_boundary, result)

let sweep_pair ?max_kernel_steps ?lo_dom ~build ~secret1 ~secret2 () =
  let max_steps = Option.value max_kernel_steps ~default:max_int in
  let a = Nonint.prepare build secret1 in
  let on_step, r = record ?lo_dom a in
  Kernel.run ~max_steps ~on_step a.Nonint.kernel;
  let b = Nonint.prepare build secret2 in
  let on_step, result = sweep_against r b in
  Kernel.run ~max_steps ~on_step b.Nonint.kernel;
  result ()

(* The first divergence in (Lo step, view order).  [diverged] is
   recorded in discovery order (step-major, then view order within a
   step), so its head is exactly that; a progress divergence can only be
   last, because it lies past every boundary both runs reached. *)
let first_divergence ~diverged ~progress =
  match diverged with
  | (component, lo_step) :: _ -> Some { lo_step; component }
  | [] -> (
    match progress with
    | Some k -> Some { lo_step = k; component = "lo-progress" }
    | None -> None)

let sweep_divergence sw =
  first_divergence ~diverged:sw.diverged ~progress:sw.progress

(* ------------------------------------------------------------------ *)
(* The unwinding proof obligation, read off recorded sweep evidence. *)

let check_of_pairs pairs =
  let name = "unwinding" in
  let description =
    "Lo's complete state view is preserved at every Lo instruction \
     boundary (state-level unwinding relation)"
  in
  let n_pairs = List.length pairs in
  let failures =
    List.filter_map
      (fun ((s1, s2), d) ->
        Option.map
          (fun d ->
            Printf.sprintf "secrets (%d,%d): %s differs at Lo step %d" s1 s2
              d.component d.lo_step)
          d)
      pairs
  in
  match failures with
  | [] ->
    {
      Proofs.name;
      description;
      holds = true;
      detail =
        Proofs.Stats
          (Printf.sprintf "%d secret pairs, Lo-equivalence preserved stepwise"
             n_pairs);
    }
  | d :: _ ->
    {
      Proofs.name;
      description;
      holds = false;
      detail =
        Proofs.Counter_example
          (Printf.sprintf "%d/%d pairs broke the relation; first: %s"
             (List.length failures) n_pairs d);
    }
