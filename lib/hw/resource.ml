type classification = Flushable | Partitionable | Neither

type kind =
  | Cache_kind
  | Tlb_kind
  | Predictor_kind
  | Prefetcher_kind
  | Interconnect_kind
  | Other_kind of string

let kind_label = function
  | Cache_kind -> "cache"
  | Tlb_kind -> "tlb"
  | Predictor_kind -> "predictor"
  | Prefetcher_kind -> "prefetcher"
  | Interconnect_kind -> "interconnect"
  | Other_kind s -> s

type view = { lo_colours : int list; page_bits : int }

type obligation = Flush_equal | Partition_equal | Out_of_scope

type flush_report = { dirty_writebacks : int; extra_cycles : int }

let no_flush = { dirty_writebacks = 0; extra_cycles = 0 }

module type S = sig
  val name : string
  val classification : classification
  val kind : kind
  val in_scope : bool
  val defence : string
  val present : bool
  val colours : int option
  val digest : unit -> int64
  val digest_fold : unit -> int64
  val lo_project : view -> int64
  val flush : unit -> flush_report
end

type t = (module S)

let name (module R : S) = R.name
let classification (module R : S) = R.classification
let kind (module R : S) = R.kind
let in_scope (module R : S) = R.in_scope
let defence (module R : S) = R.defence
let present (module R : S) = R.present
let colours (module R : S) = R.colours
let lo_project (module R : S) v = R.lo_project v

(* The unwinding obligation a resource's declared taxonomy entry
   implies.  Derived, not declared: a resource cannot promise a defence
   its classification does not support, and an out-of-scope resource can
   never silently acquire a lemma. *)
let obligation r =
  match classification r with
  | _ when not (in_scope r) -> Out_of_scope
  | Neither -> Out_of_scope
  | Partitionable -> Partition_equal
  | Flushable -> Flush_equal

(* Lemma/component naming is centralised here so the unwinding view, the
   theorem composer and the fuzz oracle all agree on the identifier of a
   resource's obligation. *)
let component_id ~name = function
  | Flush_equal -> Some ("flush:" ^ name)
  | Partition_equal -> Some ("partition:" ^ name)
  | Out_of_scope -> None

let lemma_component r = component_id ~name:(name r) (obligation r)

let digest (module R : S) = R.digest ()
let digest_fold (module R : S) = R.digest_fold ()
let flush (module R : S) = R.flush ()

let flushable r = classification r = Flushable

type divergence = { resource : string; cached : int64; fold : int64 }

(* The "a digest is a pure function of state" invariant, checked on
   demand: a cached digest that differs from its from-scratch fold means
   a missed cache invalidation. *)
let audit (module R : S) =
  let cached = R.digest () and fold = R.digest_fold () in
  if cached = fold then None else Some { resource = R.name; cached; fold }

(* Canonical defence text per class, matching the paper's Sect. 4
   mechanisms; adapters may override. *)
let default_defence = function
  | Flushable ->
    "flush_on_switch + pad_switch (latency of the flush is itself hidden)"
  | Partitionable -> "page colouring (colouring) + kernel_clone for kernel text"
  | Neither ->
    "out of scope: needs hardware bandwidth partitioning (e.g. strict TDMA)"

let make ~name:rname ~classification:cls ?kind:(knd = Other_kind rname)
    ?in_scope:(scope = cls <> Neither) ?defence:(def = default_defence cls)
    ?colours:cols ?digest_fold:dig_fold ?lo_project:lo_proj ~digest:dig
    ~flush:fl () : t =
  (module struct
    let name = rname
    let classification = cls
    let kind = knd
    let in_scope = scope
    let defence = def
    let present = true
    let colours = cols
    let digest = dig
    let digest_fold = Option.value dig_fold ~default:dig

    (* A flushable resource's Lo view is its whole digest (Lo may see all
       of it: it is reset before Lo runs); overridden by adapters that
       can project a partition. *)
    let lo_project = Option.value lo_proj ~default:(fun (_ : view) -> dig ())
    let flush = fl
  end)

(* A slot for a structure the configuration omits (e.g. the optional
   private L2).  It keeps the digest tree's shape stable — digesting to
   the fixed placeholder the pre-registry machine used — while staying
   invisible to the taxonomy ([present = false]). *)
let absent ~name:rname ~placeholder_digest : t =
  (module struct
    let name = rname
    let classification = Flushable
    let kind = Other_kind "absent"
    let in_scope = true
    let defence = "absent from this configuration"
    let present = false
    let colours = None
    let digest () = placeholder_digest
    let digest_fold () = placeholder_digest
    let lo_project (_ : view) = placeholder_digest
    let flush () = no_flush
  end)

(* ------------------------------------------------------------------ *)
(* Adapters                                                            *)

(* The Lo-coloured slice of a partitioned cache, read once per Lo
   instruction boundary in the unwinding check.  The 0x22L seed
   reproduces the pre-registry "llc-partition" view component
   bit-identically.  The slice is a function of the cache's digests, the
   colour list and the page bits, so it is kept until one of them
   changes: the cache's change counter, the list (physically: a resolved
   Lo view passes the same list at every boundary) or the page bits. *)
type slice_memo = {
  mutable changes : int;
  mutable colours : int list;
  mutable page_bits : int;
  mutable slice : int64;
}

let cache_lo_slice cache =
  let m = { changes = -1; colours = []; page_bits = 0; slice = 0L } in
  fun (v : view) ->
    let changes = Cache.changes cache in
    if
      changes <> m.changes || v.lo_colours != m.colours
      || v.page_bits <> m.page_bits
    then begin
      m.slice <-
        Cache.digest_colours cache ~page_bits:v.page_bits ~colours:v.lo_colours
          ~seed:0x22L;
      m.changes <- changes;
      m.colours <- v.lo_colours;
      m.page_bits <- v.page_bits
    end;
    m.slice

let of_cache ~name:rname ?(classification = Flushable) ?defence ?colours cache
    : t =
  let lo_project =
    match classification with
    | Partitionable -> Some (cache_lo_slice cache)
    | Flushable | Neither -> None
  in
  make ~name:rname ~classification ~kind:Cache_kind ?defence ?colours
    ~digest:(fun () -> Cache.digest cache)
    ~digest_fold:(fun () -> Cache.digest_fold cache)
    ?lo_project
    ~flush:(fun () ->
      { dirty_writebacks = Cache.flush cache; extra_cycles = 0 })
    ()

let of_tlb ?(name = "TLB") tlb : t =
  make ~name ~classification:Flushable ~kind:Tlb_kind
    ~digest:(fun () -> Tlb.digest tlb)
    ~digest_fold:(fun () -> Tlb.digest_fold tlb)
    ~flush:(fun () ->
      (* flush_all reports evicted entries; TLB entries are never dirty,
         so none of them is a write-back *)
      let (_ : int) = Tlb.flush_all tlb in
      no_flush)
    ()

let of_bpred ?(name = "branch predictor") bp : t =
  make ~name ~classification:Flushable ~kind:Predictor_kind
    ~digest:(fun () -> Bpred.digest bp)
    ~digest_fold:(fun () -> Bpred.digest_fold bp)
    ~flush:(fun () ->
      Bpred.flush bp;
      no_flush)
    ()

let of_prefetch ?(name = "prefetcher") pf : t =
  make ~name ~classification:Flushable ~kind:Prefetcher_kind
    ~digest:(fun () -> Prefetch.digest pf)
    ~digest_fold:(fun () -> Prefetch.digest_fold pf)
    ~flush:(fun () ->
      Prefetch.flush pf;
      no_flush)
    ()

let of_btb ?(name = "branch target buffer") btb : t =
  make ~name ~classification:Flushable ~kind:Predictor_kind
    ~digest:(fun () -> Btb.digest btb)
    ~digest_fold:(fun () -> Btb.digest_fold btb)
    ~flush:(fun () ->
      Btb.flush btb;
      no_flush)
    ()

let of_interconnect ?(name = "memory interconnect") bus : t =
  (* Stateless bandwidth-shared: the paper's explicit scope exclusion.
     Its digest still participates in the shared-state digest (the
     adversarial checker watches it), but no OS defence exists and the
     kernel's flush must not pretend to reset it. *)
  make ~name ~classification:Neither ~kind:Interconnect_kind ~in_scope:false
    ~digest:(fun () -> Interconnect.digest bus)
    ~digest_fold:(fun () -> Interconnect.digest_fold bus)
    ~flush:(fun () -> no_flush)
    ()

(* ------------------------------------------------------------------ *)
(* Registry folds                                                      *)

(* [Rng.combine] is not associative, so the fold shape *is* the digest.
   A group digests as a right-assochain (combine r1 (combine r2 ...)),
   and a registry as the same chain over its group digests.  The machine
   arranges its registry so these folds are bit-identical to the
   hand-written pre-registry digests. *)
let rec rfold_right = function
  | [] -> invalid_arg "Resource: empty digest fold"
  | [ d ] -> d
  | d :: rest -> Rng.combine d (rfold_right rest)

let digest_group g = rfold_right (List.map digest g)

let digest_registry groups = rfold_right (List.map digest_group groups)

(* From-scratch mirrors of the registry folds: same shape, but every
   resource re-folds its state instead of reading the memoised value.
   The differential tests compare these against the incremental path. *)
let digest_group_fold g = rfold_right (List.map digest_fold g)

let digest_registry_fold groups = rfold_right (List.map digest_group_fold groups)

let pp_classification ppf = function
  | Flushable -> Format.pp_print_string ppf "flushable"
  | Partitionable -> Format.pp_print_string ppf "partitionable"
  | Neither -> Format.pp_print_string ppf "neither"

let pp ppf r =
  Format.fprintf ppf "%s [%a%s]" (name r) pp_classification (classification r)
    (if in_scope r then "" else ", out of scope")
