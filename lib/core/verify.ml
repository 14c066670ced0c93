open Tpro_secmodel

type report = {
  config_name : string;
  aisa_ok : bool;
  taxonomy : (Mstate.component * Mstate.classification * string) list;
  checks : Proofs.check list;
  theorem : Theorem.t;
  all_hold : bool;
}

let run ?(seeds = Ni_scenario.default_seeds)
    ?(secrets = Ni_scenario.default_secrets) ~cfg () =
  let first_seed = match seeds with s :: _ -> s | [] -> 0 in
  (* The taxonomy is audited on the machine the checks actually ran on
     (derived from its live resource registry), not on a hand-kept list. *)
  let machine =
    Tpro_hw.Machine.create (Ni_scenario.machine_config ~seed:first_seed)
  in
  (* Out-of-scope resources are acknowledged by the taxonomy audit
     itself: [Mstate.all] enumerates them and [aisa_satisfied] checks
     none claims protection — exactly the explicit scope acknowledgement
     the theorem demands, so the registry's own out-of-scope set is
     passed through. *)
  let acknowledge =
    List.filter_map
      (fun r ->
        match Tpro_hw.Resource.obligation r with
        | Tpro_hw.Resource.Out_of_scope -> Some (Tpro_hw.Resource.name r)
        | _ -> None)
      (Tpro_hw.Machine.core_resources machine ~core:0
      @ Tpro_hw.Machine.shared_resources machine)
  in
  let build ~seed ~secret = Ni_scenario.build ~cfg ~seed ~secret in
  let evidence =
    List.map
      (fun seed -> Theorem.collect ~seed ~build:(build ~seed) ~secrets ())
      seeds
  in
  let derivation =
    Theorem.derive ~acknowledge
      ~run:(build ~seed:first_seed ~secret:(List.hd secrets))
      ~evidence ()
  in
  let checks = derivation.Theorem.checks in
  {
    config_name = Presets.name cfg;
    aisa_ok = Mstate.aisa_satisfied ~machine ();
    taxonomy =
      List.map
        (fun c -> (c, Mstate.classify c, Mstate.defence c))
        (Mstate.all ~machine ());
    checks;
    theorem = derivation.Theorem.theorem;
    all_hold =
      List.for_all (fun c -> c.Proofs.holds) checks
      && derivation.Theorem.theorem.Theorem.holds;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>verification of configuration %s@," r.config_name;
  Format.fprintf ppf "aISA contract (all in-scope state partitionable or flushable): %s@,"
    (if r.aisa_ok then "satisfied" else "VIOLATED");
  Format.fprintf ppf "state taxonomy:@,";
  List.iter
    (fun (c, cls, defence) ->
      Format.fprintf ppf "  %-18s %-14s %s@," (Mstate.name c)
        (Format.asprintf "%a" Mstate.pp_classification cls)
        defence)
    r.taxonomy;
  Format.fprintf ppf "proof obligations:@,";
  List.iter (fun c -> Format.fprintf ppf "  %a@," Proofs.pp c) r.checks;
  Format.fprintf ppf "lemma verdicts (derived from the resource registry):@,";
  Format.fprintf ppf "%a@," Theorem.pp r.theorem;
  Format.fprintf ppf "verdict: %s@]"
    (if r.all_hold then "time protection HOLDS on the sampled universe"
     else "time protection VIOLATED")
