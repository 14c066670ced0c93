(* `tpro prove`: derive the composed time-protection theorem for one or
   more presets by fanning evidence collection over the supervisor.

   A task is one (preset, latency seed): it runs [Theorem.collect] —
   one execution per secret for the kernel obligations, the invariant
   run and one full unwinding sweep per secret pair — and returns the
   evidence.  Tasks are pure functions of (preset, seed, secrets), so a
   resumed run recomposes a theorem bit-identical to an uninterrupted
   one; the campaign checkpoint holds each settled task's serialised
   evidence.  Composition (reading verdicts off the evidence, scope
   acknowledgements, the per-kind exhaustive small-model lemmas)
   happens at the end, in-process, through [Theorem.derive] as for
   [tpro verify]. *)

module Supervisor = Tpro_engine.Supervisor
module Campaign = Tpro_engine.Campaign
open Tpro_secmodel

type report = {
  preset : string;
  theorem : Theorem.t;
  lost : (int * string) list;
      (** (task index, error) for evidence lost to supervised failures *)
}

type outcome = {
  reports : report list;
  unproved : (string * (int * string) list) list;
  notes : string list;
  resumed_tasks : int;
}

(* The proving scenario is the standard one *with* the BTB enabled, so
   every resource kind the hardware model can register — cache, TLB,
   predictor, prefetcher, interconnect — appears in the registry and
   auto-derives its lemma. *)
let build_for ~cfg ~seed ~secret =
  Ni_scenario.build_with ~with_btb:true ~cfg ~seed ~secret

let evidence_task ~cfg ~seed ~secrets =
  Theorem.collect ~seed ~build:(fun ~secret -> build_for ~cfg ~seed ~secret)
    ~secrets ()

let evidence_codec =
  {
    Campaign.encode = Theorem.evidence_to_string;
    decode = Theorem.evidence_of_string;
  }

(* ------------------------------------------------------------------ *)
(* Composition for one preset, given its per-seed evidence. *)

let exhaustive_lemmas ~cfg ~seed =
  let machine =
    Tpro_hw.Machine.create
      (Ni_scenario.machine_config_with ~with_btb:true ~seed)
  in
  List.map
    (fun ku ->
      let result =
        Exhaustive.check
          ~build:(fun ~hi_prog ~seed ->
            Ni_scenario.build_with_program_on ~with_btb:true ~cfg ~seed
              ~hi_prog)
          ku.Exhaustive.ku_universe
      in
      Theorem.lemma_of_exhaustive ~kind_label:ku.Exhaustive.ku_label
        ~resources:ku.Exhaustive.ku_resources result)
    (Exhaustive.kind_universes ~machine ())

let compose_preset ?acknowledge ?(exhaustive = true) ~name ~cfg ~seeds
    ~secrets ~evidence ~lost () =
  let first_seed = match seeds with s :: _ -> s | [] -> 0 in
  let first_secret = match secrets with s :: _ -> s | [] -> 0 in
  let extra =
    if exhaustive then exhaustive_lemmas ~cfg ~seed:first_seed else []
  in
  let d =
    Theorem.derive ?acknowledge ~extra
      ~run:(build_for ~cfg ~seed:first_seed ~secret:first_secret)
      ~evidence ()
  in
  { preset = name; theorem = d.Theorem.theorem; lost }

(* ------------------------------------------------------------------ *)

let run ~sup ?checkpoint ?(checkpoint_every = 1) ?resume ?(acknowledge = [])
    ?(exhaustive = true) ?(seeds = Ni_scenario.default_seeds)
    ?(secrets = Ni_scenario.default_secrets) ~presets () =
  (* task index i = preset (i / |seeds|), seed (i mod |seeds|) *)
  let n_seeds = List.length seeds in
  let ints l = String.concat "," (List.map string_of_int l) in
  let o =
    Campaign.run ~sup ?checkpoint ?resume
      {
        Campaign.kind = "prove";
        params =
          [
            ("seeds", ints seeds);
            ("secrets", ints secrets);
            ("presets", String.concat "," (List.map fst presets));
          ];
        keys = List.init (List.length presets * n_seeds) Fun.id;
        execute =
          (fun ~fuel i ->
            Supervisor.Fuel.burn fuel;
            evidence_task
              ~cfg:(snd (List.nth presets (i / n_seeds)))
              ~seed:(List.nth seeds (i mod n_seeds))
              ~secrets);
        codec = evidence_codec;
        batch = checkpoint_every;
      }
  in
  (* A theorem is composed only from evidence: with none, every lemma
     would be vacuous and [Theorem.compose] would read HOLDS. *)
  let reports, unproved =
    List.mapi
      (fun p (name, cfg) ->
        let mine = List.filter (fun (i, _) -> i / n_seeds = p) o.Campaign.results in
        let evidence =
          List.filter_map (function _, Ok ev -> Some ev | _, Error _ -> None) mine
        in
        let lost =
          List.filter_map
            (function
              | i, Error e -> Some (i, Supervisor.task_error_to_string e)
              | _, Ok _ -> None)
            mine
        in
        match evidence with
        | [] -> Either.Right (name, lost)
        | _ :: _ ->
          Either.Left
            (compose_preset ~acknowledge ~exhaustive ~name ~cfg ~seeds ~secrets
               ~evidence ~lost ()))
      presets
    |> List.partition_map Fun.id
  in
  { reports; unproved; notes = o.Campaign.notes; resumed_tasks = o.Campaign.resumed }

(* ------------------------------------------------------------------ *)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>theorem for preset %s:@,%a@]" r.preset Theorem.pp
    r.theorem

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json reports =
  let lemma_json l =
    Printf.sprintf
      "      {\"id\": \"%s\", \"subject\": \"%s\", \"mechanism\": \"%s\", \
       \"verdict\": \"%s\", \"detail\": \"%s\"}"
      (json_escape l.Lemma.lid)
      (json_escape l.Lemma.subject)
      (json_escape (Lemma.mechanism_label l.Lemma.mechanism))
      (json_escape (Lemma.verdict_label l))
      (json_escape (Lemma.detail l))
  in
  let report_json r =
    Printf.sprintf
      "  {\"preset\": \"%s\", \"holds\": %b, \"refuted\": %d, \
       \"unacknowledged\": %d, \"lost_tasks\": %d,\n\
      \   \"lemmas\": [\n%s\n   ]}"
      (json_escape r.preset) r.theorem.Theorem.holds
      (List.length r.theorem.Theorem.refuted)
      (List.length r.theorem.Theorem.unacknowledged)
      (List.length r.lost)
      (String.concat ",\n" (List.map lemma_json r.theorem.Theorem.lemmas))
  in
  Printf.sprintf "{\"schema\": \"tpro-prove/1\", \"presets\": [\n%s\n]}\n"
    (String.concat ",\n" (List.map report_json reports))
