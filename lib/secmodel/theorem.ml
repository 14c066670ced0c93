open Tpro_hw
open Tpro_kernel

type pair_evidence = {
  pe_secrets : int * int;
  pe_diverged : (string * int) list;
  pe_progress : int option;
  pe_boundaries : int;
}

type seed_evidence = {
  ev_seed : int;
  ev_checks : Proofs.check list;
  ev_pairs : pair_evidence list;
}

type t = {
  lemmas : Lemma.t list;
  holds : bool;
  refuted : Lemma.t list;
  unacknowledged : string list;
  first_counter_example : (string * string) option;
}

(* ------------------------------------------------------------------ *)
(* Evidence gathering.  [collect] executes, for one latency seed, each
   secret once.  The first secret's run records Lo's views for the
   unwinding sweeps and carries the invariant checks; each other run is
   swept against that record while it executes and compared with the
   first run once it ends, so at most two runs are live at once.  Cases
   1/2a and top-level noninterference read those comparisons, case 2b
   the first run's kernel.  [checks_of_evidence] then re-wraps the
   checks [across_seeds] so the classic check list is reproduced from
   recorded evidence — which is what lets [tpro prove] fan collection
   over the supervisor and checkpoint the evidence between processes. *)

let secrets_error secrets =
  match secrets with
  | s :: rest when List.exists (fun s' -> s' <> s) rest -> None
  | _ ->
    Some
      (Printf.sprintf "need at least two distinct secrets, got %s"
         (if secrets = [] then "none"
          else String.concat "," (List.map string_of_int secrets)))

let collect ~seed ~build ~secrets () =
  Option.iter
    (fun m -> invalid_arg ("Theorem.collect: " ^ m))
    (secrets_error secrets);
  let base = List.hd secrets and rest = List.tl secrets in
  let first = Nonint.prepare build base in
  let record_step, record = Unwinding.record first in
  let check_step, invariants =
    Proofs.invariants_throughout first.Nonint.kernel
  in
  Kernel.run first.Nonint.kernel ~on_step:(fun n ->
      record_step n;
      check_step n);
  let invariants = invariants () in
  let pairs, comparisons =
    List.split
      (List.map
         (fun s ->
           let run = Nonint.prepare build s in
           let on_step, sweep = Unwinding.sweep_against record run in
           Kernel.run ~on_step run.Nonint.kernel;
           let sw = sweep () in
           ( {
               pe_secrets = (base, s);
               pe_diverged = sw.Unwinding.diverged;
               pe_progress = sw.Unwinding.progress;
               pe_boundaries = sw.Unwinding.boundaries;
             },
             (base, s, Nonint.compare_runs first run) ))
         rest)
  in
  let checks =
    [
      Proofs.case1_user_steps comparisons;
      Proofs.case2a_traps comparisons;
      Proofs.case2b_constant_switch first.Nonint.kernel;
      Proofs.noninterference comparisons;
      invariants;
    ]
  in
  { ev_seed = seed; ev_checks = checks; ev_pairs = pairs }

(* The resources lemmas are derived for: those the observing (Lo) core
   sees, plus the shared ones. *)
let subjects_of_run (run : Nonint.run) =
  let k = run.Nonint.kernel in
  let m = Kernel.machine k in
  let core =
    match run.Nonint.observers with
    | th :: _ -> (Kernel.domain k th.Thread.dom).Domain.core
    | [] -> 0
  in
  Machine.core_resources m ~core @ Machine.shared_resources m

(* ------------------------------------------------------------------ *)
(* The classic check list, reconstructed from evidence. *)

let checks_of_evidence evidence =
  let seeds = List.map (fun ev -> ev.ev_seed) evidence in
  let find seed = List.find (fun ev -> ev.ev_seed = seed) evidence in
  let nth i ~seed = List.nth (find seed).ev_checks i in
  let unwinding ~seed =
    Unwinding.check_of_pairs
      (List.map
         (fun pe ->
           ( pe.pe_secrets,
             Unwinding.first_divergence ~diverged:pe.pe_diverged
               ~progress:pe.pe_progress ))
         (find seed).ev_pairs)
  in
  [
    Proofs.across_seeds ~seeds (nth 0);
    Proofs.across_seeds ~seeds (nth 1);
    Proofs.across_seeds ~seeds (nth 2);
    Proofs.across_seeds ~seeds (nth 3);
    Proofs.across_seeds ~seeds (nth 4);
    Proofs.across_seeds ~seeds unwinding;
  ]

(* ------------------------------------------------------------------ *)
(* Lemma derivation. *)

(* First divergence of one named view component across all evidence
   (seed-major, then pair order, then the per-pair discovery order). *)
let find_component ~evidence cid =
  List.find_map
    (fun ev ->
      List.find_map
        (fun pe ->
          List.find_map
            (fun (c, step) ->
              if String.equal c cid then
                Some (ev.ev_seed, pe.pe_secrets, step)
              else None)
            pe.pe_diverged)
        ev.ev_pairs)
    evidence

let find_progress ~evidence =
  List.find_map
    (fun ev ->
      List.find_map
        (fun pe ->
          Option.map (fun k -> (ev.ev_seed, pe.pe_secrets, k)) pe.pe_progress)
        ev.ev_pairs)
    evidence

let resource_lemmas ~acknowledge ~subjects ~evidence =
  let n_seeds = List.length evidence in
  let n_pairs =
    match evidence with [] -> 0 | ev :: _ -> List.length ev.ev_pairs
  in
  let boundaries =
    List.fold_left
      (fun acc ev ->
        List.fold_left (fun a pe -> a + pe.pe_boundaries) acc ev.ev_pairs)
      0 evidence
  in
  List.map
    (fun r ->
      let name = Resource.name r in
      match Resource.component_id ~name (Resource.obligation r) with
      | None ->
        {
          Lemma.lid = "scope:" ^ name;
          subject = name;
          mechanism = Lemma.Scope;
          statement =
            Printf.sprintf
              "no unwinding lemma: %s carries no OS defence (%s)" name
              (Resource.defence r);
          verdict =
            Lemma.Unscoped { acknowledged = List.mem name acknowledge };
        }
      | Some cid ->
        let mechanism, statement =
          match Resource.obligation r with
          | Resource.Partition_equal ->
            ( Lemma.Partition,
              Printf.sprintf
                "the Lo-coloured slice of %s is equal across Hi's secrets \
                 at every Lo boundary"
                name )
          | Resource.Flush_equal | Resource.Out_of_scope ->
            ( Lemma.Flush,
              Printf.sprintf
                "the post-switch Lo view of %s is equal across Hi's \
                 secrets at every Lo boundary"
                name )
        in
        let verdict =
          match find_component ~evidence cid with
          | Some (seed, (s1, s2), step) ->
            Lemma.Refuted
              (Printf.sprintf
                 "under latency seed %d, secrets (%d,%d): Lo's view of %s \
                  differs at Lo step %d"
                 seed s1 s2 name step)
          | None ->
            Lemma.Proved
              (Printf.sprintf
                 "Lo-view equality held at %d Lo boundaries (%d latency \
                  seeds x %d secret pairs)"
                 boundaries n_seeds n_pairs)
        in
        { Lemma.lid = cid; subject = name; mechanism; statement; verdict })
    subjects

let kernel_lemmas ~checks ~evidence =
  let by_name n =
    match List.find_opt (fun c -> String.equal c.Proofs.name n) checks with
    | Some c -> c
    | None -> invalid_arg ("Theorem.kernel_lemmas: missing check " ^ n)
  in
  (* A kernel lemma can be refuted by its own check, or by the unwinding
     view component it owns: the boundary clock belongs to the padding
     lemma, Lo's threads/observations/progress to top-level
     noninterference. *)
  let refine base cid describe =
    if Lemma.refuted base then base
    else
      match find_component ~evidence cid with
      | Some (seed, (s1, s2), step) ->
        { base with Lemma.verdict = Lemma.Refuted (describe seed s1 s2 step) }
      | None -> base
  in
  let user_step =
    Lemma.of_check ~lid:"kernel:user-step" ~subject:"kernel" Lemma.User_step
      (by_name "case-1")
  in
  let trap =
    Lemma.of_check ~lid:"kernel:trap" ~subject:"kernel" Lemma.Trap
      (by_name "case-2a")
  in
  let padded_switch =
    refine
      (Lemma.of_check ~lid:"kernel:padded-switch" ~subject:"kernel"
         Lemma.Padding (by_name "case-2b"))
      "kernel:clock"
      (fun seed s1 s2 step ->
        Printf.sprintf
          "under latency seed %d, secrets (%d,%d): Lo's cycle counter \
           differs at Lo boundary %d (padding failed to mask the switch)"
          seed s1 s2 step)
  in
  let noninterference =
    let base =
      Lemma.of_check ~lid:"kernel:noninterference" ~subject:"kernel"
        Lemma.Top_level
        (by_name "noninterference")
    in
    let base =
      List.fold_left
        (fun acc (cid, what) ->
          refine acc cid (fun seed s1 s2 step ->
              Printf.sprintf
                "under latency seed %d, secrets (%d,%d): %s differ at Lo \
                 step %d"
                seed s1 s2 what step))
        base
        [
          ("lo-threads", "Lo's thread states");
          ("lo-observations", "Lo's observations");
        ]
    in
    if Lemma.refuted base then base
    else
      match find_progress ~evidence with
      | Some (seed, (s1, s2), step) ->
        {
          base with
          Lemma.verdict =
            Lemma.Refuted
              (Printf.sprintf
                 "under latency seed %d, secrets (%d,%d): one run quiesced \
                  at Lo step %d while the other continued"
                 seed s1 s2 step);
        }
      | None -> base
  in
  let invariants =
    Lemma.of_check ~lid:"kernel:invariants" ~subject:"kernel" Lemma.Invariants
      (by_name "invariants")
  in
  [ user_step; trap; padded_switch; noninterference; invariants ]

let lemma_of_exhaustive ~kind_label ~resources (r : Exhaustive.result) =
  {
    Lemma.lid = "exhaustive:" ^ kind_label;
    subject = String.concat ", " resources;
    mechanism = Lemma.Small_model;
    statement =
      Printf.sprintf
        "every Hi program over the %s small-model universe leaves Lo's \
         observations baseline-identical"
        kind_label;
    verdict =
      (if r.Exhaustive.violations = 0 then
         Lemma.Proved
           (Printf.sprintf "%d programs, %d executions, no violation"
              r.Exhaustive.programs r.Exhaustive.executions)
       else
         Lemma.Refuted
           (Printf.sprintf "%d/%d executions violated NI; first: %s"
              r.Exhaustive.violations r.Exhaustive.executions
              (Option.value r.Exhaustive.first_violation ~default:"?")));
  }

(* ------------------------------------------------------------------ *)
(* Composition. *)

let compose lemmas =
  let refuted = List.filter Lemma.refuted lemmas in
  let unack = List.filter Lemma.unacknowledged lemmas in
  let first_counter_example =
    match refuted with
    | l :: _ -> Some (l.Lemma.lid, Lemma.detail l)
    | [] -> (
      match unack with
      | l :: _ ->
        Some
          ( l.Lemma.lid,
            "out-of-scope resource never acknowledged: " ^ l.Lemma.subject )
      | [] -> None)
  in
  {
    lemmas;
    holds = refuted = [] && unack = [];
    refuted;
    unacknowledged = List.map (fun l -> l.Lemma.subject) unack;
    first_counter_example;
  }

type derivation = { theorem : t; checks : Proofs.check list }

(* The one composition: the resource lemmas for the subjects a fresh
   run's registry names, the kernel lemmas read off the classic checks,
   then [extra] (the exhaustive lemmas, for [tpro prove]). *)
let derive ?(acknowledge = []) ?(extra = []) ~run ~evidence () =
  let checks = checks_of_evidence evidence in
  let lemmas =
    resource_lemmas ~acknowledge ~subjects:(subjects_of_run run) ~evidence
    @ kernel_lemmas ~checks ~evidence
    @ extra
  in
  { theorem = compose lemmas; checks }

(* ------------------------------------------------------------------ *)
(* Evidence (de)serialisation for [tpro prove]'s checkpoints: one line
   per record, tab-separated fields, each free-text field put through
   [Checkpoint.escape] (which escapes tabs and newlines), so the whole
   blob survives a further escape onto a single checkpoint line. *)

let evidence_to_string ev =
  let esc = Tpro_engine.Checkpoint.escape in
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "seed\t%d" ev.ev_seed);
  List.iter
    (fun c ->
      let tag, text =
        match c.Proofs.detail with
        | Proofs.Counter_example s -> ("C", s)
        | Proofs.Stats s -> ("S", s)
      in
      Buffer.add_string b
        (Printf.sprintf "\ncheck\t%s\t%s\t%d\t%s\t%s" (esc c.Proofs.name)
           (esc c.Proofs.description)
           (if c.Proofs.holds then 1 else 0)
           tag (esc text)))
    ev.ev_checks;
  List.iter
    (fun pe ->
      let s1, s2 = pe.pe_secrets in
      Buffer.add_string b
        (Printf.sprintf "\npair\t%d\t%d\t%d\t%s" s1 s2 pe.pe_boundaries
           (match pe.pe_progress with Some k -> string_of_int k | None -> "-"));
      List.iter
        (fun (c, step) ->
          Buffer.add_string b (Printf.sprintf "\ndiv\t%s\t%d" (esc c) step))
        pe.pe_diverged)
    ev.ev_pairs;
  Buffer.contents b

let evidence_of_string s =
  let unesc field =
    match Tpro_engine.Checkpoint.unescape field with
    | Some v -> v
    | None -> failwith "malformed escape"
  in
  try
    let seed = ref None in
    let checks = ref [] in
    (* pairs in reverse, each with its divergences in reverse *)
    let pairs = ref [] in
    List.iter
      (fun line ->
        match String.split_on_char '\t' line with
        | [ "seed"; n ] -> seed := Some (int_of_string n)
        | [ "check"; name; description; holds; tag; text ] ->
          let text = unesc text in
          let detail =
            match tag with
            | "C" -> Proofs.Counter_example text
            | "S" -> Proofs.Stats text
            | _ -> failwith "bad detail tag"
          in
          checks :=
            {
              Proofs.name = unesc name;
              description = unesc description;
              holds = int_of_string holds <> 0;
              detail;
            }
            :: !checks
        | [ "pair"; s1; s2; boundaries; progress ] ->
          let pe =
            {
              pe_secrets = (int_of_string s1, int_of_string s2);
              pe_boundaries = int_of_string boundaries;
              pe_progress =
                (if String.equal progress "-" then None
                 else Some (int_of_string progress));
              pe_diverged = [];
            }
          in
          pairs := pe :: !pairs
        | [ "div"; c; step ] -> (
          match !pairs with
          | [] -> failwith "divergence before any pair"
          | pe :: rest ->
            pairs :=
              {
                pe with
                pe_diverged = (unesc c, int_of_string step) :: pe.pe_diverged;
              }
              :: rest)
        | _ -> failwith "unrecognised evidence line")
      (String.split_on_char '\n' s);
    match !seed with
    | None -> Error "evidence has no seed line"
    | Some ev_seed ->
      Ok
        {
          ev_seed;
          ev_checks = List.rev !checks;
          ev_pairs =
            List.rev_map
              (fun pe -> { pe with pe_diverged = List.rev pe.pe_diverged })
              !pairs;
        }
  with Failure m -> Error ("malformed evidence: " ^ m)

(* ------------------------------------------------------------------ *)

let pp_verdict_table ppf lemmas =
  Format.fprintf ppf "  %-28s %-22s %-18s %s" "lemma" "subject" "mechanism"
    "verdict";
  List.iter (fun l -> Format.fprintf ppf "@\n  %a" Lemma.pp l) lemmas

let pp ppf t =
  pp_verdict_table ppf t.lemmas;
  let n = List.length t.lemmas in
  let n_proved = List.length (List.filter Lemma.proved t.lemmas) in
  let n_refuted = List.length t.refuted in
  let n_scope =
    List.length
      (List.filter
         (fun l ->
           match l.Lemma.verdict with
           | Lemma.Unscoped _ -> true
           | _ -> false)
         t.lemmas)
  in
  Format.fprintf ppf
    "@\n  composed time-protection theorem: %s (%d lemmas: %d proved, %d \
     refuted, %d out-of-scope, %d unacknowledged)"
    (if t.holds then "HOLDS" else "REFUTED")
    n n_proved n_refuted n_scope
    (List.length t.unacknowledged);
  match t.first_counter_example with
  | Some (lid, d) ->
    Format.fprintf ppf "@\n  first counter-example [%s]: %s" lid d
  | None -> ()
