open Tpro_kernel

type detail = Counter_example of string | Stats of string

let detail_text = function Counter_example s | Stats s -> s

type check = {
  name : string;
  description : string;
  holds : bool;
  detail : detail;
}

let cost_divergence_check ~name ~description ~select comparisons =
  let failures =
    List.filter_map
      (fun (s1, s2, report) ->
        Option.map
          (fun (i, j, a, b) ->
            Printf.sprintf "secrets (%d,%d): thread %d step %d cost %d vs %d"
              s1 s2 i j a b)
          (select report))
      comparisons
  in
  let n = List.length comparisons in
  match failures with
  | [] ->
    {
      name;
      description;
      holds = true;
      detail =
        Stats (Printf.sprintf "%d secret pairs compared, no divergence" n);
    }
  | d :: _ ->
    {
      name;
      description;
      holds = false;
      detail =
        Counter_example
          (Printf.sprintf "%d/%d pairs diverged; first: %s"
             (List.length failures) n d);
    }

let case1_user_steps comparisons =
  cost_divergence_check ~name:"case-1"
    ~description:
      "user-mode instruction cost of Lo is independent of Hi's secret"
    ~select:(fun r -> r.Nonint.user_costs)
    comparisons

let case2a_traps comparisons =
  cost_divergence_check ~name:"case-2a"
    ~description:"trap cost of Lo is independent of Hi's secret"
    ~select:(fun r -> r.Nonint.trap_costs)
    comparisons

let case2b_constant_switch kernel =
  let name = "case-2b" in
  let description =
    "every padded domain switch ends exactly at slice_start + slice + pad"
  in
  let switches =
    List.filter_map
      (fun e ->
        match e with
        | Event.Switch { from_dom; slice_start; finish; padded = true; overrun; _ }
          ->
          Some (from_dom, finish - slice_start, overrun)
        | _ -> None)
      (Kernel.events kernel)
  in
  if switches = [] then
    {
      name;
      description;
      holds = true;
      detail = Stats "no padded switches occurred";
    }
  else begin
    let overruns = List.filter (fun (_, _, o) -> o) switches in
    let bad_slot =
      List.find_opt
        (fun (from_dom, slot, _) ->
          let d = Kernel.domain kernel from_dom in
          slot <> d.Domain.slice + d.Domain.pad_cycles)
        switches
    in
    match (overruns, bad_slot) with
    | [], None ->
      {
        name;
        description;
        holds = true;
        detail =
          Stats
            (Printf.sprintf "%d padded switches, all at their exact deadline"
               (List.length switches));
      }
    | (d, slot, _) :: _, _ | _, Some (d, slot, _) ->
      {
        name;
        description;
        holds = false;
        detail =
          Counter_example
            (Printf.sprintf
               "switch from domain %d took slot %d (expected slice+pad); %d \
                overruns"
               d slot (List.length overruns));
      }
  end

let noninterference comparisons =
  let name = "noninterference" in
  let description =
    "Lo's complete observation trace is identical for every Hi secret"
  in
  match List.filter (fun (_, _, r) -> not (Nonint.secure r)) comparisons with
  | [] ->
    (* every secret but the first was compared with the first *)
    let n_secrets = List.length comparisons + 1 in
    {
      name;
      description;
      holds = true;
      detail =
        Stats
          (Printf.sprintf "%d secrets compared, traces identical" n_secrets);
    }
  | (s1, s2, report) :: _ as bad ->
    {
      name;
      description;
      holds = false;
      detail =
        Counter_example
          (Format.asprintf "%d insecure pairs; first (%d,%d): %a"
             (List.length bad) s1 s2 Nonint.pp_report report);
    }

let invariants_throughout k =
  let first = ref None and violations = ref 0 in
  let states_checked = ref 0 and steps = ref 0 in
  let check () =
    incr states_checked;
    match Invariant.check_all k with
    | [] -> ()
    | v :: _ as vs ->
      if !first = None then first := Some v;
      violations := !violations + List.length vs
  in
  check ();
  let on_step n =
    steps := n;
    if n mod 50 = 0 then check ()
  in
  let verdict () =
    check ();
    {
      name = "invariants";
      description = "partitioning invariants hold in every reachable state";
      holds = !first = None;
      detail =
        (match !first with
        | None ->
          Stats
            (Printf.sprintf "%d states checked over %d steps, no violation"
               !states_checked !steps)
        | Some v ->
          Counter_example
            (Format.asprintf "%d violations; first: %a" !violations
               Invariant.pp_violation v));
    }
  in
  (on_step, verdict)

let across_seeds ~seeds f =
  match seeds with
  | [] -> invalid_arg "Proofs.across_seeds: no seeds"
  | _ :: _ ->
    let results = List.map (fun seed -> (seed, f ~seed)) seeds in
    let template = snd (List.hd results) in
    (match List.find_opt (fun (_, c) -> not c.holds) results with
    | Some (seed, c) ->
      {
        c with
        detail =
          Counter_example
            (Printf.sprintf "failed under latency seed %d: %s" seed
               (detail_text c.detail));
      }
    | None ->
      {
        template with
        detail =
          Stats
            (Printf.sprintf "holds for %d latency functions (%s)"
               (List.length seeds) (detail_text template.detail));
      })

let pp ppf c =
  Format.fprintf ppf "%s %s: %s — %s"
    (if c.holds then "[OK]  " else "[FAIL]")
    c.name c.description (detail_text c.detail)
