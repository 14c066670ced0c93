open Tpro_hw
open Tpro_kernel

type divergence = { lo_step : int; component : string }

let obs_code = function
  | Event.Clock c -> Int64.of_int ((c lsl 2) lor 1)
  | Event.Latency l -> Int64.of_int ((l lsl 2) lor 2)
  | Event.Recv m -> Int64.of_int ((m lsl 2) lor 3)

let state_code = function
  | Thread.Ready -> 0
  | Thread.Blocked_send ep -> 4 + (ep lsl 2)
  | Thread.Blocked_recv ep -> 5 + (ep lsl 2)
  | Thread.Halted -> 2

let rec threads_hash acc = function
  | [] -> acc
  | th :: rest ->
    threads_hash
      (Rng.combine acc
         (Int64.of_int
            ((th.Thread.pc lsl 16)
            lxor (state_code th.Thread.state lsl 4)
            lxor th.Thread.msg)))
      rest

(* [acc] chained with the codes of the [n] newest observations of a
   newest-first list, oldest first. *)
let rec chain_newest acc n obs_rev =
  match obs_rev with
  | o :: older when n > 0 -> Rng.chain (chain_newest acc (n - 1) older) (obs_code o)
  | _ -> acc

(* Lo's view, resolved once per run.  Everything a boundary needs that
   does not change while the run executes is looked up here: the
   observer's domain, its core's clock, and the in-scope resources of the
   machine's registry with their component names.  A boundary then
   writes every component's digest into [buf] and builds nothing.

   The components, in view order: Lo's thread states, Lo's observation
   trace, one per in-scope registered resource (named by its obligation,
   [flush:<r>] / [partition:<r>], and valued by the resource's own
   Lo-projection: the whole digest of a flushable, the Lo-coloured slice
   of a partitioned cache), and the core's clock.  Out-of-scope resources
   contribute nothing; their absence is what the composed theorem's
   acknowledgement machinery makes loud.  Comparing per-resource
   projections is component-wise at least as strict as the old chained
   "core-private"/"llc-partition" digests, and a divergence names the
   lemma that broke.

   The observation trace is hashed incrementally.  The hash combines one
   fold per thread, and observation lists are append-only, so the view
   keeps each thread's fold and extends it by the observations recorded
   since the previous boundary; a changed thread list (a spawn) refolds
   every thread.  The value is bit-identical to folding every trace from
   scratch, which re-folding at every boundary would make quadratic. *)
type view = {
  dom : Domain.t;
  clock : Clock.t;
  names : string array;  (** component names, view order *)
  resources : Resource.t array;  (** components [2 ..], in view order *)
  projection : Resource.view;
  buf : Bytes.t;  (** each component's digest, int64 LE, view order *)
  mutable threads : Thread.t list;  (** the list [accs] folds *)
  mutable counts : int array;  (** observations folded, per thread *)
  mutable accs : int64 array;  (** each thread's observation fold *)
}

let resolve k ~lo_dom =
  let dom = Kernel.domain k lo_dom and m = Kernel.machine k in
  let core = dom.Domain.core in
  let components =
    List.filter_map
      (fun r -> Option.map (fun cid -> (cid, r)) (Resource.lemma_component r))
      (Machine.core_resources m ~core @ Machine.shared_resources m)
  in
  let names =
    Array.of_list
      (("lo-threads" :: "lo-observations" :: List.map fst components)
      @ [ "kernel:clock" ])
  in
  {
    dom;
    clock = Machine.clock m ~core;
    names;
    resources = Array.of_list (List.map snd components);
    projection =
      { Resource.lo_colours = dom.Domain.colours; page_bits = Kernel.page_bits k };
    buf = Bytes.create (8 * Array.length names);
    threads = [];
    counts = [||];
    accs = [||];
  }

let rec extend v i = function
  | [] -> ()
  | th :: rest ->
    let count = Thread.obs_count th in
    if count <> v.counts.(i) then begin
      v.accs.(i) <-
        chain_newest v.accs.(i) (count - v.counts.(i))
          (Thread.observations_rev th);
      v.counts.(i) <- count
    end;
    extend v (i + 1) rest

let observations_hash v =
  let threads = Domain.threads v.dom in
  if threads != v.threads then begin
    v.threads <- threads;
    v.counts <- Array.of_list (List.map Thread.obs_count threads);
    v.accs <-
      Array.of_list
        (List.map
           (fun th ->
             chain_newest 0x11L (Thread.obs_count th)
               (Thread.observations_rev th))
           threads)
  end
  else extend v 0 threads;
  Array.fold_left Rng.combine 0x11L v.accs

(* Lo's view of the current state, into [v.buf]. *)
let fill v =
  let b = v.buf and n = Array.length v.resources in
  Bytes.set_int64_le b 0 (threads_hash 0x11L (Domain.threads v.dom));
  Bytes.set_int64_le b 8 (observations_hash v);
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (8 * (i + 2)) (Resource.lo_project v.resources.(i) v.projection)
  done;
  Bytes.set_int64_le b (8 * (n + 2)) (Int64.of_int (Clock.now v.clock))

let lo_view k ~lo_dom =
  let v = resolve k ~lo_dom in
  fill v;
  List.init (Array.length v.names) (fun i ->
      (v.names.(i), Bytes.get_int64_le v.buf (8 * i)))

(* Pacing: "Lo instruction boundary [k]" means the nominated observer
   domain has completed [k] instructions.  Only [lo_dom]'s threads are
   counted — an N-domain run's observer list spans every non-varied
   domain across all cores, and a cut placed by a *global* count lands
   at secret-dependent per-core positions (cross-core interleaving
   shifts inside the varied domain's slices), which would make even a
   leak-free topology's view sample mid-stream state at misaligned
   points.  In the legacy Hi/Lo runs every observer thread belongs to
   [lo_dom], so the filtered count is identical to the old global one. *)
let lo_threads (run : Nonint.run) ~lo_dom =
  Array.of_list
    (List.filter (fun th -> th.Thread.dom = lo_dom) run.Nonint.observers)

let lo_count threads =
  Array.fold_left (fun acc th -> acc + Thread.cost_count th) 0 threads

(* ------------------------------------------------------------------ *)
(* Sweeps, record then compare.  A sweep does not stop at the first
   divergence: the composed theorem attributes a failure to *every*
   lemma whose component broke, so it keeps the first Lo step at which
   each view component diverged. *)

let max_lo_steps = 20_000

(* [Kernel.run]'s step hook: [f k] at each Lo boundary [k <= limit] the
   run has reached since the previous step, with Lo's view there in
   [v.buf]. *)
let at_boundaries (run : Nonint.run) v ~lo_dom ~limit f =
  let lo = lo_threads run ~lo_dom and next = ref 1 in
  fun (_ : int) ->
    while !next <= limit && !next <= lo_count lo do
      fill v;
      f !next;
      incr next
    done

type record = {
  run : Nonint.run;
  lo_dom : int;
  names : string array;  (** view component names, view order *)
  views : Buffer.t;  (** each boundary's component digests, int64 LE *)
}

let record ?lo_dom (run : Nonint.run) =
  let lo_dom =
    match (lo_dom, run.Nonint.observers) with
    | Some d, _ -> d
    | None, th :: _ -> th.Thread.dom
    | None, [] -> invalid_arg "Unwinding.record: no observers"
  in
  let v = resolve run.Nonint.kernel ~lo_dom in
  let r = { run; lo_dom; names = v.names; views = Buffer.create 4096 } in
  ( at_boundaries run v ~lo_dom ~limit:max_lo_steps (fun _ ->
        Buffer.add_bytes r.views v.buf),
    r )

let recorded_view r k =
  let n = Array.length r.names in
  if k < 1 || 8 * k * n > Buffer.length r.views then
    invalid_arg "Unwinding.recorded_view: no such boundary";
  let view = Buffer.sub r.views (8 * (k - 1) * n) (8 * n) in
  List.init n (fun i -> (r.names.(i), String.get_int64_le view (8 * i)))

type sweep = {
  run_a : Nonint.run;
  run_b : Nonint.run;
  components : string list;
  diverged : (string * int) list;
  progress : int option;
  boundaries : int;
}

let sweep_against r run =
  let v = resolve run.Nonint.kernel ~lo_dom:r.lo_dom in
  let n = Array.length r.names in
  if Array.length v.names <> n then
    invalid_arg "Unwinding.sweep_against: the runs' views differ in shape";
  let views = Buffer.contents r.views in
  let recorded = String.length views / (8 * n) in
  let seen = Array.make n false and diverged = ref [] and boundaries = ref 0 in
  let check_boundary k =
    boundaries := k;
    let base = 8 * (k - 1) * n in
    for i = 0 to n - 1 do
      if
        (not seen.(i))
        && not
             (Int64.equal
                (Bytes.get_int64_le v.buf (8 * i))
                (String.get_int64_le views (base + (8 * i))))
      then begin
        seen.(i) <- true;
        diverged := (v.names.(i), k) :: !diverged
      end
    done
  in
  let result () =
    (* where the runs' final Lo counts differ, the shorter run's next
       boundary is the first one only the longer run reached *)
    let ra = lo_count (lo_threads r.run ~lo_dom:r.lo_dom)
    and rb = lo_count (lo_threads run ~lo_dom:r.lo_dom) in
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
  (at_boundaries run v ~lo_dom:r.lo_dom ~limit:recorded check_boundary, result)

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
