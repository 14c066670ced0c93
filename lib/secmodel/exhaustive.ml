open Tpro_kernel

type universe = {
  hi_len : int;
  hi_alphabet : Program.instr list;
  seeds : int list;
}

let hi_buf = 0x4000_0000

let default_universe =
  {
    hi_len = 3;
    hi_alphabet =
      [
        Program.Load hi_buf;
        Program.Load (hi_buf + 64);
        Program.Load (hi_buf + 4096);
        Program.Store hi_buf;
        Program.Store (hi_buf + 128);
        Program.Compute 7;
        Program.Syscall Program.Sys_null;
      ];
    seeds = [ 0; 1 ];
  }

let enumerate u =
  let alphabet = Array.of_list u.hi_alphabet in
  let n = Array.length alphabet in
  let rec build len =
    if len = 0 then [ [] ]
    else
      let shorter = build (len - 1) in
      List.concat_map
        (fun tail -> List.init n (fun i -> alphabet.(i) :: tail))
        shorter
  in
  List.map
    (fun instrs -> Array.append (Array.of_list instrs) [| Program.Halt |])
    (build u.hi_len)

let universe_size u =
  let n = List.length u.hi_alphabet in
  let rec pow acc k = if k = 0 then acc else pow (acc * n) (k - 1) in
  pow 1 u.hi_len

let baseline u =
  Array.append (Array.make u.hi_len (Program.Compute 7)) [| Program.Halt |]

type result = {
  programs : int;
  executions : int;
  violations : int;
  first_violation : string option;
}

let observation_of run =
  List.map
    (fun th -> (Observation.of_thread th, Thread.cost_trace th))
    run.Nonint.observers

(* The baseline views are computed up front (one per seed, cheap), then
   every execution of the (seed x program) grid is independent — pure
   fan-out, over [pool] if given.  Results are folded in grid order, so
   the violation count and the *first* violation are identical whichever
   map runs the grid. *)
let check ?pool ~build u =
  let map =
    match pool with Some p -> Tpro_engine.Pool.map p | None -> List.map
  in
  let programs = enumerate u in
  let grid =
    List.concat_map
      (fun seed ->
        let base_run =
          Nonint.execute (fun ~secret:_ -> build ~hi_prog:(baseline u) ~seed) 0
        in
        let base_view = observation_of base_run in
        List.map (fun prog -> (seed, base_view, prog)) programs)
      u.seeds
  in
  let divergent =
    map
      (fun (seed, base_view, prog) ->
        let run =
          Nonint.execute (fun ~secret:_ -> build ~hi_prog:prog ~seed) 0
        in
        if observation_of run <> base_view then Some (seed, prog) else None)
      grid
  in
  let violations = ref 0 in
  let first = ref None in
  List.iter
    (function
      | None -> ()
      | Some (seed, prog) ->
        incr violations;
        if !first = None then
          first :=
            Some
              (Format.asprintf "seed %d, Hi program: @[%a@]" seed Program.pp
                 prog))
    divergent;
  {
    programs = List.length programs;
    executions = List.length grid;
    violations = !violations;
    first_violation = !first;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "%d programs x %d executions: %d observation-divergent" r.programs
    r.executions r.violations;
  match r.first_violation with
  | Some v -> Format.fprintf ppf "; first: %s" v
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Per-resource-kind universes.

   One global universe can only ever exercise the structures its
   alphabet happens to touch; deriving the adversary alphabet from the
   *kind* of each registered resource makes the ∀ genuinely exhaustive
   per kind: loads at line/page granularity for caches, mapped-page
   churn for TLBs, biased branches for predictors, strided loads for
   prefetchers.  The small-program scenario maps two Hi pages, so every
   address stays within [hi_buf, hi_buf + 2 pages). *)

let universe_for_kind ?(hi_buf = hi_buf) kind =
  match (kind : Tpro_hw.Resource.kind) with
  | Tpro_hw.Resource.Cache_kind ->
    Some
      {
        hi_len = 2;
        hi_alphabet =
          [
            Program.Load hi_buf;
            Program.Load (hi_buf + 64);
            Program.Load (hi_buf + 4096);
            Program.Store hi_buf;
            Program.Compute 7;
          ];
        seeds = [ 0; 1 ];
      }
  | Tpro_hw.Resource.Tlb_kind ->
    Some
      {
        hi_len = 2;
        hi_alphabet =
          [
            Program.Load hi_buf;
            Program.Load (hi_buf + 4096);
            Program.Syscall Program.Sys_null;
            Program.Compute 7;
          ];
        seeds = [ 0; 1 ];
      }
  | Tpro_hw.Resource.Predictor_kind ->
    Some
      {
        hi_len = 2;
        hi_alphabet =
          [
            Program.Branch { tag = 0; taken = true };
            Program.Branch { tag = 0; taken = false };
            Program.Branch { tag = 1; taken = true };
            Program.Compute 7;
          ];
        seeds = [ 0; 1 ];
      }
  | Tpro_hw.Resource.Prefetcher_kind ->
    Some
      {
        hi_len = 3;
        hi_alphabet =
          [
            Program.Load hi_buf;
            Program.Load (hi_buf + 64);
            Program.Load (hi_buf + 128);
            Program.Compute 7;
          ];
        seeds = [ 0; 1 ];
      }
  | Tpro_hw.Resource.Interconnect_kind | Tpro_hw.Resource.Other_kind _ -> None

type kind_universe = {
  ku_label : string;
  ku_resources : string list;
  ku_universe : universe;
}

let kind_universes ?hi_buf ~machine () =
  let resources =
    List.concat
      [
        Tpro_hw.Machine.core_resources machine ~core:0;
        Tpro_hw.Machine.shared_resources machine;
      ]
  in
  (* group by kind, first-seen order, keeping each kind's resource
     names in registry order *)
  let seen = ref [] in
  List.iter
    (fun r ->
      let kind = Tpro_hw.Resource.kind r in
      let label = Tpro_hw.Resource.kind_label kind in
      match List.assoc_opt label !seen with
      | Some (k, names) ->
        seen :=
          List.map
            (fun (l, v) ->
              if String.equal l label then
                (l, (k, Tpro_hw.Resource.name r :: names))
              else (l, v))
            !seen
      | None ->
        seen := !seen @ [ (label, (kind, [ Tpro_hw.Resource.name r ])) ])
    resources;
  List.filter_map
    (fun (label, (kind, names)) ->
      match universe_for_kind ?hi_buf kind with
      | Some u ->
        Some
          {
            ku_label = label;
            ku_resources = List.rev names;
            ku_universe = u;
          }
      | None -> None)
    !seen
