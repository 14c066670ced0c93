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
   in trace length and dominated E7.  Observation lists are strictly
   append-only, so the memo keeps, per thread, the running boundary
   accumulator of the original left fold and extends it by folding only
   the observations recorded since the previous boundary — the returned
   value is bit-identical to the from-scratch [hash_int64s] fold. *)
type obs_memo = {
  mutable m_threads : Thread.t array;
  mutable m_counts : int array;
  mutable m_accs : int64 array;
      (** [m_accs.(i)]: the fold accumulator after thread [i]'s codes *)
}

let obs_memo () = { m_threads = [||]; m_counts = [||]; m_accs = [||] }

let rec take n = function
  | x :: r when n > 0 -> x :: take (n - 1) r
  | _ -> []

let fold_codes acc obs =
  List.fold_left (fun a o -> Rng.chain a (obs_code o)) acc obs

let obs_hash memo threads =
  let ths = Array.of_list threads in
  let n = Array.length ths in
  let same =
    n = Array.length memo.m_threads
    &&
    let ok = ref true in
    for i = 0 to n - 1 do
      if ths.(i) != memo.m_threads.(i) then ok := false
    done;
    !ok
  in
  if not same then begin
    (* thread set changed (first call, or a spawn): full refold *)
    memo.m_threads <- ths;
    memo.m_counts <- Array.make (max n 1) 0;
    memo.m_accs <- Array.make (max n 1) 0x11L;
    let acc = ref 0x11L in
    for i = 0 to n - 1 do
      acc := fold_codes !acc (Thread.observations ths.(i));
      memo.m_counts.(i) <- Thread.obs_count ths.(i);
      memo.m_accs.(i) <- !acc
    done
  end
  else begin
    let first = ref n in
    for i = n - 1 downto 0 do
      if Thread.obs_count ths.(i) <> memo.m_counts.(i) then first := i
    done;
    for i = !first to n - 1 do
      let th = ths.(i) in
      let count = Thread.obs_count th in
      let acc =
        if i = !first then
          (* append-only: extend this thread's own accumulator by the
             new tail (newest-first internally, so reverse the slice) *)
          fold_codes memo.m_accs.(i)
            (List.rev
               (take (count - memo.m_counts.(i)) (Thread.observations_rev th)))
        else
          (* an earlier thread grew, shifting this thread's starting
             accumulator: refold it entirely *)
          fold_codes
            (if i = 0 then 0x11L else memo.m_accs.(i - 1))
            (Thread.observations th)
      in
      memo.m_counts.(i) <- count;
      memo.m_accs.(i) <- acc
    done
  end;
  if n = 0 then 0x11L else memo.m_accs.(n - 1)

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
    | None ->
      hash_int64s
        (List.concat_map
           (fun th -> List.map obs_code (Thread.observations th))
           (Domain.threads dom))
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

let prepare build secret =
  let run = build ~secret in
  List.iter (fun th -> Thread.set_traced th true) run.Nonint.observers;
  run

(* The observer domain whose view the sweep compares: any domain of the
   run can be nominated (the pairwise topology campaigns evaluate every
   domain pair); by default it is the first observer thread's domain —
   the legacy Hi/Lo behaviour. *)
let observer_dom lo_dom (run : Nonint.run) =
  match lo_dom with
  | Some d -> d
  | None -> (
    match run.Nonint.observers with
    | th :: _ -> th.Thread.dom
    | [] -> invalid_arg "Unwinding.sweep_pair: no observers")

(* ------------------------------------------------------------------ *)
(* Full sweeps.  The two runs advance in lockstep to each successive Lo
   boundary and their views are compared there.  A sweep does not stop
   at the first divergence: the composed theorem attributes a failure to
   *every* lemma whose component broke, and the fuzz oracle needs the
   two runs fully executed afterwards for the observation-trace
   comparison.  So it runs to quiescence, recording the first Lo step at
   which each view component diverged. *)

type sweep = {
  run_a : Nonint.run;
  run_b : Nonint.run;
  components : string list;
  diverged : (string * int) list;
  progress : int option;
  boundaries : int;
}

let sweep_pair ?(max_lo_steps = 20_000) ?max_kernel_steps ?lo_dom ~build
    ~secret1 ~secret2 () =
  let a = prepare build secret1 in
  let b = prepare build secret2 in
  let lo_dom = observer_dom lo_dom a in
  let memo_a = obs_memo () and memo_b = obs_memo () in
  let budget_a = ref (Option.value max_kernel_steps ~default:max_int) in
  let budget_b = ref (Option.value max_kernel_steps ~default:max_int) in
  (* advance one run until Lo has completed [target] instructions, within
     a per-run kernel-step budget so the fuzz oracle can cap runaway
     scenarios; [false] if the run quiesced or ran out of budget first *)
  let advance run budget ~target =
    let rec go () =
      if lo_count run ~lo_dom >= target then true
      else if !budget > 0 && Kernel.step run.Nonint.kernel then begin
        decr budget;
        go ()
      end
      else false
    in
    go ()
  in
  let components = ref [] in
  let seen = Hashtbl.create 16 in
  let diverged = ref [] in
  let progress = ref None in
  let boundaries = ref 0 in
  let rec go k =
    if k > max_lo_steps then ()
    else begin
      let a_live = advance a budget_a ~target:k in
      let b_live = advance b budget_b ~target:k in
      if a_live <> b_live then progress := Some k
      else if a_live then begin
        incr boundaries;
        let va = lo_view ~memo:memo_a a.Nonint.kernel ~lo_dom in
        let vb = lo_view ~memo:memo_b b.Nonint.kernel ~lo_dom in
        if !components = [] then components := List.map fst va;
        List.iter2
          (fun (na, da) (nb, db) ->
            assert (na = nb);
            if da <> db && not (Hashtbl.mem seen na) then begin
              Hashtbl.add seen na ();
              diverged := (na, k) :: !diverged
            end)
          va vb;
        go (k + 1)
      end
    end
  in
  go 1;
  {
    run_a = a;
    run_b = b;
    components = !components;
    diverged = List.rev !diverged;
    progress = !progress;
    boundaries = !boundaries;
  }

(* The first divergence in (Lo step, view order).  [diverged] is
   recorded in discovery order (step-major, then view order within a
   step), so its head is exactly that; a progress divergence can only be
   last, because the sweep stops there. *)
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
