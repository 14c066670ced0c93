(* Differential suite for the flat-state hardware core: the memoised
   (incremental) digests must equal the from-scratch folds after *every*
   trace step, on every machine preset, and a core-local flush must
   return every resource to the empty-state digest.  This is the test
   harness for the "a digest is a pure function of state" invariant now
   that digests are cached; [Resource.audit] checks it per resource, and
   the Legacy fuzz oracle calls that audit on its own traces. *)

open Tpro_hw

let geometry = Cache.geometry

let base_config =
  {
    Machine.default_config with
    Machine.n_frames = 256;
    l1_geom = geometry ~sets:16 ~ways:2 ~line_bits:6 ();
    llc_geom = geometry ~sets:256 ~ways:4 ~line_bits:6 ();
  }

(* Presets span the digest-relevant configuration space: optional private
   L2, optional BTB, every replacement policy, SMT sharing, and the
   memoised Partitioned interconnect. *)
let presets =
  [
    ("base", base_config);
    ( "l2",
      {
        base_config with
        Machine.l2_geom = Some (geometry ~sets:32 ~ways:4 ~line_bits:6 ());
      } );
    ("btb", { base_config with Machine.btb_entries = Some 64 });
    ( "l2+btb+fifo",
      {
        base_config with
        Machine.l2_geom = Some (geometry ~sets:32 ~ways:4 ~line_bits:6 ());
        btb_entries = Some 32;
        replacement = Cache.Fifo;
      } );
    ( "smt+pseudo-random",
      {
        base_config with
        Machine.n_cores = 2;
        smt = true;
        replacement = Cache.Pseudo_random 7;
      } );
    ( "partitioned-bus",
      {
        base_config with
        Machine.bus_mode = Interconnect.Partitioned { slot = 16; n_domains = 2 };
      } );
  ]

let translate vpn = if vpn < 256 then Some vpn else None

let cost = function Ok c -> c | Error `Fault -> -1

(* One random machine event, returning its cost (-1 for a fault).  The
   op mix deliberately hits the paths whose digest bookkeeping is
   subtle: writes (dirty bits + write-backs on eviction), kernel
   fetches, branches (saturating counters + BTB), virtual accesses (TLB
   insert/evict), line invalidation, and the occasional full core-local
   flush mid-trace. *)
let step m ~core rng =
  let span = 0x40000 in
  match Rng.int rng 10 with
  | 0 | 1 ->
    Machine.touch_paddr m ~core ~owner:(Rng.int rng 2) ~write:false
      (Rng.int rng span)
  | 2 | 3 ->
    Machine.touch_paddr m ~core ~owner:(Rng.int rng 2) ~write:true
      (Rng.int rng span)
  | 4 -> Machine.fetch_paddr m ~core ~owner:0 (Rng.int rng span)
  | 5 | 6 ->
    Machine.branch m ~core ~pc:(Rng.int rng 256 * 4) ~taken:(Rng.bool rng)
  | 7 ->
    cost
      (Machine.load m ~core ~asid:(1 + Rng.int rng 3) ~domain:0 ~translate
         ~pc:(Rng.int rng 4096) (Rng.int rng span))
  | 8 ->
    cost
      (Machine.store m ~core ~asid:(1 + Rng.int rng 3) ~domain:1 ~translate
         ~pc:(Rng.int rng 4096) (Rng.int rng span))
  | _ ->
    if Rng.int rng 8 = 0 then Machine.flush_core_local m ~core
    else cost (Machine.flush_line m ~core ~asid:1 ~translate (Rng.int rng span))

let check_digests_agree name m =
  for core = 0 to Machine.n_cores m - 1 do
    Alcotest.(check int64)
      (Printf.sprintf "%s: core %d incremental == fold" name core)
      (Machine.digest_core_fold m ~core)
      (Machine.digest_core m ~core)
  done;
  Alcotest.(check int64)
    (Printf.sprintf "%s: shared incremental == fold" name)
    (Machine.digest_shared_fold m) (Machine.digest_shared m)

(* Every preset, a full random trace, incremental == fold after every
   single step (the per-step comparison is the point of the suite: a
   missed invalidation shows up at the first step that stales state
   without invalidating the memo). *)
let test_trace_differential (name, cfg) () =
  let m = Machine.create cfg in
  check_digests_agree (name ^ " (fresh)") m;
  let rng = Rng.create 0xf1a7 in
  for i = 1 to 300 do
    ignore (step m ~core:0 rng : int);
    if Machine.n_cores m > 1 then ignore (step m ~core:1 rng : int);
    check_digests_agree (Printf.sprintf "%s step %d" name i) m
  done;
  (* per-set LLC digests (the unwinding relation's partition view reads
     these directly) *)
  let llc = Machine.llc m in
  let g = Cache.geom llc in
  for set = 0 to g.Cache.sets - 1 do
    Alcotest.(check int64)
      (Printf.sprintf "%s: LLC set %d memo == fold" name set)
      (Cache.digest_set_fold llc set)
      (Cache.digest_set llc set)
  done

(* Flushing a traced machine returns every core-private digest to the
   empty state: bit-identical to a never-used machine of the same
   configuration. *)
let test_flush_resets (name, cfg) () =
  let m = Machine.create cfg in
  let rng = Rng.create 0xbeef in
  for _ = 1 to 200 do
    ignore (step m ~core:0 rng : int)
  done;
  let fresh = Machine.create cfg in
  for core = 0 to Machine.n_cores m - 1 do
    let (_ : int) = Machine.flush_core_local m ~core in
    Alcotest.(check int64)
      (Printf.sprintf "%s: core %d post-flush == fresh" name core)
      (Machine.digest_core fresh ~core)
      (Machine.digest_core m ~core);
    Alcotest.(check int64)
      (Printf.sprintf "%s: core %d post-flush fold agrees" name core)
      (Machine.digest_core_fold m ~core)
      (Machine.digest_core m ~core)
  done

(* A reset machine is a fresh one.  A first trace touches every
   structure, memory ownership and the registries; after [reset], the
   machine and a new one replay a second trace at the same cost at every
   step, with the same clocks and digests throughout. *)
let test_reset_matches_fresh (name, cfg) () =
  let m = Machine.create cfg in
  let n = Machine.n_cores m in
  let rng = Rng.create 0x5e7 in
  for _ = 1 to 300 do
    for core = 0 to n - 1 do
      ignore (step m ~core rng : int)
    done
  done;
  Mem.set_owner (Machine.mem m) ~frame:3 ~owner:1;
  let late name =
    Resource.make ~name ~classification:Resource.Flushable
      ~digest:(fun () -> 5L)
      ~flush:(fun () -> Resource.no_flush)
      ()
  in
  Machine.register_core_resource m ~core:0 (late "late core resource");
  Machine.register_shared_resource m (late "late shared resource");
  Machine.reset m;
  let fresh = Machine.create cfg in
  let names rs = List.map Resource.name rs in
  for core = 0 to n - 1 do
    Alcotest.(check (list string))
      (Printf.sprintf "%s: core %d registry" name core)
      (names (Machine.core_resources fresh ~core))
      (names (Machine.core_resources m ~core))
  done;
  Alcotest.(check (list string))
    (name ^ ": shared registry")
    (names (Machine.shared_resources fresh))
    (names (Machine.shared_resources m));
  Alcotest.(check (list int))
    (name ^ ": every frame free")
    [] (Mem.frames_owned_by (Machine.mem m) 1);
  let ra = Rng.create 0xa11 and rb = Rng.create 0xa11 in
  for i = 1 to 300 do
    for core = 0 to n - 1 do
      let label what = Printf.sprintf "%s step %d core %d: %s" name i core what in
      Alcotest.(check int) (label "cost") (step fresh ~core rb) (step m ~core ra);
      Alcotest.(check int) (label "clock") (Machine.now fresh ~core)
        (Machine.now m ~core);
      Alcotest.(check int64) (label "digest") (Machine.digest_core fresh ~core)
        (Machine.digest_core m ~core)
    done;
    Alcotest.(check int64)
      (Printf.sprintf "%s step %d: shared digest" name i)
      (Machine.digest_shared fresh) (Machine.digest_shared m)
  done;
  check_digests_agree (name ^ " (reset, replayed)") m

(* Digests ignore recency stamps and [set_ticks], so only a replay shows
   a flush that leaves replacement state behind.  A first trace touches
   half the sets (a flush resets only touched ones) and evicts; after a
   flush, the cache must hit, miss and evict exactly as a new one. *)
let test_flushed_cache_replays_fresh (pname, replacement) () =
  let g = geometry ~sets:64 ~ways:4 ~line_bits:6 () in
  let c = Cache.create ~replacement g in
  let rng = Rng.create 0xf1 in
  for _ = 1 to 600 do
    (* even lines only: the even sets, 16 tags each *)
    let addr = Rng.int rng 1024 * 128 in
    if Rng.int rng 10 = 0 then ignore (Cache.invalidate_line c addr : bool)
    else
      let owner = Rng.int rng 3 in
      let write = Rng.bool rng in
      ignore (Cache.access c ~owner ~write addr : Cache.access_result)
  done;
  Alcotest.(check bool) (pname ^ ": trace left dirty lines") true
    (Cache.dirty_count c > 0);
  ignore (Cache.flush c : int);
  let fresh = Cache.create ~replacement g in
  let access c rng =
    let owner = Rng.int rng 3 in
    let write = Rng.bool rng in
    let addr = Rng.int rng 0x10000 in
    Cache.access c ~owner ~write addr
  in
  let ra = Rng.create 0xf2 and rb = Rng.create 0xf2 in
  for i = 1 to 2000 do
    if access c ra <> access fresh rb then
      Alcotest.failf "%s: access %d differs from a new cache's" pname i
  done;
  let lines c =
    let acc = ref [] in
    Cache.iter_lines c (fun ~set ~way ~tag ~dirty ~owner ->
        acc := (set, way, tag, dirty, owner) :: !acc);
    !acc
  in
  Alcotest.(check bool) (pname ^ ": same lines") true (lines c = lines fresh);
  Alcotest.(check int64) (pname ^ ": same digest") (Cache.digest fresh)
    (Cache.digest c);
  Alcotest.(check int64) (pname ^ ": digest == fold") (Cache.digest_fold c)
    (Cache.digest c)

(* O(1) counters agree with the flush's ground truth: [flush] reports
   exactly [dirty_count] write-backs, and a clean (untouched) cache
   flushes to zero write-backs with an unchanged digest. *)
let test_dirty_counter () =
  let c = Cache.create (geometry ~sets:16 ~ways:2 ~line_bits:6 ()) in
  Alcotest.(check int) "fresh cache flush reports 0" 0 (Cache.flush c);
  let rng = Rng.create 42 in
  for _ = 1 to 500 do
    ignore
      (Cache.access c ~owner:0 ~write:(Rng.bool rng) (Rng.int rng 0x10000))
  done;
  let dirty = Cache.dirty_count c in
  Alcotest.(check bool) "trace produced dirty lines" true (dirty > 0);
  Alcotest.(check int) "flush write-backs == dirty_count" dirty (Cache.flush c);
  Alcotest.(check int) "post-flush dirty_count is 0" 0 (Cache.dirty_count c);
  Alcotest.(check int) "post-flush valid_count is 0" 0 (Cache.valid_count c);
  let d0 = Cache.digest c in
  Alcotest.(check int) "clean re-flush reports 0" 0 (Cache.flush c);
  Alcotest.(check int64) "clean re-flush leaves digest unchanged" d0
    (Cache.digest c)

(* The audit actually detects divergence: a resource whose cached digest
   lies is reported with both values, while [digest] still serves the
   cached one and an honest resource audits clean. *)
let test_audit_detects () =
  let lying =
    Resource.make ~name:"liar" ~classification:Resource.Flushable
      ~digest:(fun () -> 1L)
      ~digest_fold:(fun () -> 2L)
      ~flush:(fun () -> Resource.no_flush)
      ()
  in
  Alcotest.(check int64) "digest serves the cached value" 1L
    (Resource.digest lying);
  Alcotest.(check bool) "audit reports the liar with both digests" true
    (Resource.audit lying
    = Some { Resource.resource = "liar"; cached = 1L; fold = 2L });
  let honest =
    Resource.make ~name:"honest" ~classification:Resource.Flushable
      ~digest:(fun () -> 3L)
      ~flush:(fun () -> Resource.no_flush)
      ()
  in
  Alcotest.(check bool) "an honest resource audits clean" true
    (Resource.audit honest = None)

(* QCheck: arbitrary traces, every resource of core 0 and the shared
   state audited after every step. *)
let prop_random_traces =
  QCheck.Test.make ~name:"random traces keep incremental == fold" ~count:30
    QCheck.(
      triple
        (int_bound (List.length presets - 1))
        (int_bound 10_000) (int_bound 150))
    (fun (p, seed, steps) ->
      let _, cfg = List.nth presets p in
      let m = Machine.create cfg in
      let audited () =
        List.for_all
          (fun r -> Resource.audit r = None)
          (Machine.core_resources m ~core:0 @ Machine.shared_resources m)
      in
      let rng = Rng.create ((seed * 2) + 1) in
      let ok = ref (audited ()) in
      for _ = 1 to steps do
        ignore (step m ~core:0 rng : int);
        ok := !ok && audited ()
      done;
      !ok
      && Machine.digest_core m ~core:0 = Machine.digest_core_fold m ~core:0
      && Machine.digest_shared m = Machine.digest_shared_fold m)

(* QCheck: conflict traces aimed at one cache set per colour, forcing
   evictions and dirty write-backs — the paths where a stale per-set
   memo or a miscounted dirty line would hide. *)
let prop_eviction_writeback_colours =
  QCheck.Test.make
    ~name:"eviction/writeback/colour paths keep per-set memo == fold"
    ~count:30
    QCheck.(
      pair
        (small_list (triple (int_bound 15) (int_bound 15) bool))
        (int_bound 10_000))
    (fun (ops, seed) ->
      let m = Machine.create base_config in
      let llc = Machine.llc m in
      let g = Cache.geom llc in
      let pb = Machine.page_bits m in
      let n_colours = Machine.n_colours m in
      let page = 1 lsl pb in
      let rng = Rng.create ((seed * 2) + 1) in
      List.iter
        (fun (colour, conflict, write) ->
          (* same LLC set, different tags: colour * page selects the
             colour, conflict * (colour span) walks the tag bits *)
          let addr =
            ((colour mod n_colours) * page)
            + (conflict * n_colours * page)
            + (Rng.int rng 4 * Cache.line_size g)
          in
          ignore (Machine.touch_paddr m ~core:0 ~owner:0 ~write addr))
        ops;
      let ok = ref true in
      for set = 0 to g.Cache.sets - 1 do
        if Cache.digest_set llc set <> Cache.digest_set_fold llc set then
          ok := false
      done;
      !ok
      && Cache.digest llc = Cache.digest_fold llc
      && Machine.digest_shared m = Machine.digest_shared_fold m)

(* [Cache.digest_colours] against the walk it replaced: every set in
   ascending order, chained iff its colour is owned.  Three geometries
   cover the colour arithmetic's regimes: the default LLC (16 colours of
   64 sets), a single colour spanning every set (colouring off), and more
   colours than sets (one set per colour, the rest own nothing).  The
   partitioned cache's Lo projection, which keeps its slice until the
   cache's change counter, the colour list or the page bits change, must
   equal [digest_colours] with the 0x22L seed after every operation.
   Each colour list has a projection of its own, which sees the same list
   at every read, so only the change counter can tell it that the cache
   changed; one more projection serves every list in turn, so its list
   changes between reads.  Each is read twice per list, so its reuse is
   checked as well as its recomputation. *)
let all_sets_walk cache ~page_bits ~colours ~seed =
  let g = Cache.geom cache in
  let n_colours = Cache.n_colours g ~page_bits in
  let owned = Array.make (max n_colours 1) false in
  List.iter
    (fun c -> if c < Array.length owned then owned.(c) <- true)
    colours;
  let d = ref seed in
  for set = 0 to g.Cache.sets - 1 do
    if owned.(Cache.colour_of_set g ~page_bits set) then
      d := Rng.chain !d (Cache.digest_set cache set)
  done;
  !d

let colour_geometries =
  (* geometry, page bits, the colour count that puts it in its regime *)
  [
    (Machine.default_config.Machine.llc_geom, 12, 16);
    (geometry ~sets:64 ~ways:2 ~line_bits:6 (), 12, 1);
    (geometry ~sets:16 ~ways:2 ~line_bits:8 (), 6, 64);
  ]

(* Every shape of colour list a caller may pass, derived from one random
   draw: empty, as drawn (unsorted, duplicated, partly >= n_colours),
   sorted without duplicates, complete, and complete reversed with every
   colour twice plus out-of-range extras. *)
let colour_shapes ~n drawn =
  let complete = List.init n Fun.id in
  [
    [];
    drawn;
    List.sort_uniq compare (List.filter (fun c -> c < n) drawn);
    complete;
    List.rev complete @ complete @ [ n; n + 7 ];
  ]

let prop_digest_colours_differential =
  QCheck.Test.make ~name:"digest_colours == all-sets walk" ~count:40
    QCheck.(
      triple
        (small_list (pair (int_bound 0xfffff) bool))
        (small_list (int_bound 40))
        (int_bound 10_000))
    (fun (trace, drawn, seed) ->
      List.for_all
        (fun (g, page_bits, colours) ->
          let c = Cache.create g in
          let n = Cache.n_colours g ~page_bits in
          let rng = Rng.create seed in
          let projection () =
            Resource.lo_project
              (Resource.of_cache ~name:"llc"
                 ~classification:Resource.Partitionable c)
          in
          let shared = projection () in
          let shapes =
            List.map
              (fun colours -> (colours, projection ()))
              (colour_shapes ~n drawn)
          in
          let agree () =
            List.for_all
              (fun (colours, own) ->
                let view = { Resource.lo_colours = colours; page_bits } in
                let slice = Cache.digest_colours c ~page_bits ~colours ~seed:0x22L in
                List.for_all
                  (fun seed ->
                    Cache.digest_colours c ~page_bits ~colours ~seed
                    = all_sets_walk c ~page_bits ~colours ~seed)
                  [ 0x22L; 1L ]
                && List.for_all
                     (fun project -> project view = slice && project view = slice)
                     [ own; shared ])
              shapes
          in
          n = colours
          && agree ()
          && List.for_all
               (fun (addr, write) ->
                 (* mostly accesses; now and then drop a line or flush,
                    so the per-set memo is both staled and reset *)
                 (match Rng.int rng 16 with
                 | 0 -> ignore (Cache.invalidate_line c addr)
                 | 1 -> ignore (Cache.flush c)
                 | _ -> ignore (Cache.access c ~owner:0 ~write addr));
                 agree ())
               trace)
        colour_geometries)

let suite =
  List.map
    (fun (name, cfg) ->
      Alcotest.test_case
        (Printf.sprintf "trace differential (%s)" name)
        `Quick
        (test_trace_differential (name, cfg)))
    presets
  @ List.map
      (fun (name, cfg) ->
        Alcotest.test_case
          (Printf.sprintf "flush resets to empty state (%s)" name)
          `Quick
          (test_flush_resets (name, cfg)))
      presets
  @ List.map
      (fun (name, cfg) ->
        Alcotest.test_case
          (Printf.sprintf "reset machine replays as fresh (%s)" name)
          `Quick
          (test_reset_matches_fresh (name, cfg)))
      presets
  @ List.map
      (fun (name, replacement) ->
        Alcotest.test_case
          (Printf.sprintf "flushed cache replays as new (%s)" name)
          `Quick
          (test_flushed_cache_replays_fresh (name, replacement)))
      [ ("lru", Cache.Lru); ("fifo", Cache.Fifo);
        ("pseudo-random", Cache.Pseudo_random 7) ]
  @ [
      Alcotest.test_case "O(1) dirty counter agrees with flush" `Quick
        test_dirty_counter;
      Alcotest.test_case "audit detects a lying digest" `Quick
        test_audit_detects;
      QCheck_alcotest.to_alcotest prop_random_traces;
      QCheck_alcotest.to_alcotest prop_eviction_writeback_colours;
      QCheck_alcotest.to_alcotest prop_digest_colours_differential;
    ]
