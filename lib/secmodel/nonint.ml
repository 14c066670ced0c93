open Tpro_kernel

type run = { kernel : Kernel.t; observers : Thread.t list }

type divergence_report = {
  obs : (int * Observation.divergence) option;
  user_costs : (int * int * int * int) option;
  trap_costs : (int * int * int * int) option;
}

let secure r = r.obs = None && r.user_costs = None && r.trap_costs = None

(* The same run, seen from one domain: the observer list restricted to
   [dom]'s threads (in domain thread order).  [compare_runs] on two such
   views is the pairwise noninterference check of an N-domain topology —
   nothing about the comparison itself is Hi/Lo specific. *)
let view_from run ~dom =
  { run with observers = Domain.threads (Kernel.domain run.kernel dom) }

let prepare build secret =
  let run = build ~secret in
  List.iter (fun th -> Thread.set_traced th true) run.observers;
  run

let execute ?max_steps build secret =
  let run = prepare build secret in
  Kernel.run ?max_steps run.kernel;
  run

let costs_of_kind kind th =
  List.filter_map
    (fun (k, c) -> if k = kind then Some c else None)
    (Thread.cost_trace th)

(* First position where two per-observer cost sequences differ. *)
let first_cost_divergence kind obs1 obs2 =
  let rec per_thread i ths1 ths2 =
    match (ths1, ths2) with
    | [], [] -> None
    | th1 :: r1, th2 :: r2 -> (
      let c1 = costs_of_kind kind th1 and c2 = costs_of_kind kind th2 in
      let rec step j a b =
        match (a, b) with
        | [], [] -> per_thread (i + 1) r1 r2
        | x :: a', y :: b' ->
          if x = y then step (j + 1) a' b' else Some (i, j, x, y)
        | x :: _, [] -> Some (i, j, x, -1)
        | [], y :: _ -> Some (i, j, -1, y)
      in
      step 0 c1 c2)
    | _, _ -> invalid_arg "Nonint: observer count mismatch"
  in
  per_thread 0 obs1 obs2

let compare_threads obs1 obs2 =
  {
    obs =
      Observation.compare_many
        (Observation.of_threads obs1)
        (Observation.of_threads obs2);
    user_costs = first_cost_divergence Thread.User obs1 obs2;
    trap_costs = first_cost_divergence Thread.Trap obs1 obs2;
  }

let compare_runs r1 r2 = compare_threads r1.observers r2.observers

let pp_report ppf r =
  if secure r then Format.pp_print_string ppf "no divergence"
  else begin
    (match r.obs with
    | Some (i, d) ->
      Format.fprintf ppf "observations[thread %d] %a; " i
        Observation.pp_divergence d
    | None -> ());
    (match r.user_costs with
    | Some (i, j, a, b) ->
      Format.fprintf ppf "user step cost[thread %d, step %d]: %d vs %d; " i j
        a b
    | None -> ());
    match r.trap_costs with
    | Some (i, j, a, b) ->
      Format.fprintf ppf "trap cost[thread %d, trap %d]: %d vs %d" i j a b
    | None -> ()
  end
