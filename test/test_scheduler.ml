(* Torture suite for the domain pool: determinism of its one job loop
   under real domain contention (10k items, two foreign callers with
   nested maps, a shutdown racing a map in flight), the settle-then-raise
   failure contract, and the calibration fallback that keeps a 1-core
   host sequential.

   Every randomized test derives its randomness from TPRO_SCHED_SEED
   (default 0), so CI can re-run the whole suite under several seeds
   and a reproduced failure names the seed that found it. *)

open Tpro_engine

exception Boom of int

let stress_seed =
  match Sys.getenv_opt "TPRO_SCHED_SEED" with
  | Some s -> ( try int_of_string s with _ -> 0)
  | None -> 0

(* A little deterministic busy work whose length depends on [i]: gives
   tasks genuinely different durations without any timing dependence
   in their results. *)
let spin i =
  let acc = ref i in
  for k = 1 to 50 + (i * 1103515245 land 0x3FF) do
    acc := (!acc * 31) + k
  done;
  Sys.opaque_identity !acc

let multiset l = List.sort compare l

(* ------------------------------------------------------------------ *)
(* Pool: 10k-task stress, determinism under contention                  *)

let test_stress_10k_bit_identical () =
  let rng = Random.State.make [| stress_seed; 2 |] in
  let n = 10_000 in
  (* per-task durations randomized via a seed-derived salt mixed into
     the busy-work length; results stay pure functions of the input *)
  let salt = Random.State.int rng 0xFFFF in
  let f i =
    ignore (spin (i lxor salt));
    (i * i) + salt
  in
  let expected = List.map f (List.init n Fun.id) in
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check bool)
        "10k results in submission order, bit-identical to sequential" true
        (Pool.map pool f (List.init n Fun.id) = expected))

let test_steal_under_shutdown () =
  (* a map is in flight from a foreign domain when the pool's workers
     are torn down: the call must still complete, correctly ordered,
     with the caller running whatever items the workers left *)
  let pool = Pool.create ~domains:4 () in
  let xs = List.init 400 Fun.id in
  let f i =
    ignore (spin i);
    i + 1
  in
  let caller =
    Domain.spawn (fun () -> Pool.map pool f xs)
  in
  (* races the caller's submission and drain on purpose *)
  Pool.shutdown pool;
  let got = Domain.join caller in
  Alcotest.(check (list int))
    "map survives shutdown mid-flight" (List.map succ xs) got;
  (* and the pool remains usable sequentially afterwards *)
  Alcotest.(check (list int))
    "pool still usable after shutdown" [ 2; 3 ]
    (Pool.map pool succ [ 1; 2 ])

let test_nested_map () =
  Pool.with_pool ~domains:4 (fun pool ->
      let rows =
        Pool.map pool
          (fun r -> Pool.map pool (fun c -> (r * 10) + c) [ 0; 1; 2 ])
          [ 1; 2; 3; 4; 5; 6 ]
      in
      Alcotest.(check (list (list int)))
        "nested maps"
        (List.map (fun r -> List.map (fun c -> (r * 10) + c) [ 0; 1; 2 ])
           [ 1; 2; 3; 4; 5; 6 ])
        rows)

(* Two top-level callers share one pool, and every item maps again, two
   levels deep: three workers and two callers claim items of dozens of
   open jobs at once.  Each job must still settle exactly its own
   items. *)
let test_two_callers_nested () =
  let rng = Random.State.make [| stress_seed; 3 |] in
  let salt = Random.State.int rng 0xFFFF in
  let leaf a b c =
    ignore (spin ((a * 97) + (b * 13) + c + salt));
    (a * 100) + (b * 10) + c
  in
  (* caller [who] maps 8 items, each maps 6, each of those maps 4 *)
  let tree pool who =
    let map f xs =
      match pool with Some p -> Pool.map p f xs | None -> List.map f xs
    in
    map
      (fun a ->
        map
          (fun b -> map (fun c -> leaf (a + who) b c) (List.init 4 Fun.id))
          (List.init 6 Fun.id))
      (List.init 8 (fun a -> a * 1000))
  in
  let items_per_caller = 8 + (8 * 6) + (8 * 6 * 4) in
  Pool.with_pool ~domains:4 (fun pool ->
      let go = Atomic.make false in
      let callers =
        List.map
          (fun who ->
            Domain.spawn (fun () ->
                while not (Atomic.get go) do
                  Domain.cpu_relax ()
                done;
                tree (Some pool) who))
          [ 1; 2 ]
      in
      Atomic.set go true;
      let got = List.map Domain.join callers in
      List.iter2
        (fun who rows ->
          Alcotest.(check bool)
            (Printf.sprintf "caller %d: results equal List.map" who)
            true
            (rows = tree None who))
        [ 1; 2 ] got;
      Alcotest.(check int)
        "every item of every job executed exactly once" (2 * items_per_caller)
        (Pool.stats pool).Pool.tasks_executed)

let test_lowest_failure () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "lowest-indexed failure" (Boom 10) (fun () ->
          ignore
            (Pool.map pool
               (fun x -> if x >= 10 then raise (Boom x) else x)
               (List.init 500 Fun.id))))

(* A failure is re-raised only after every item has settled: count
   executions at the moment the exception reaches the caller. *)
let test_every_item_settles () =
  Pool.with_pool ~domains:4 (fun pool ->
      let ran = Atomic.make 0 in
      let f i =
        Atomic.incr ran;
        ignore (spin i);
        if i = 3 then raise (Boom i) else i
      in
      match Pool.map pool f (List.init 300 Fun.id) with
      | _ -> Alcotest.fail "item 3 raised, but map returned"
      | exception Boom k ->
        let settled = Atomic.get ran in
        Alcotest.(check int) "item 3's exception" 3 k;
        Alcotest.(check int) "all 300 items ran before the re-raise" 300 settled)

let test_pool_stats () =
  let pool = Pool.create ~domains:4 () in
  let st0 = Pool.stats pool in
  Alcotest.(check int) "pool size" 4 st0.Pool.pool_size;
  Alcotest.(check int) "spawned workers" 3 st0.Pool.spawned_domains;
  let n = 500 in
  ignore (Pool.map pool (fun i -> ignore (spin i)) (List.init n Fun.id));
  let st = Pool.stats pool in
  Alcotest.(check int)
    "items from a foreign caller count as injected" n
    st.Pool.tasks_injected;
  Alcotest.(check int) "every item executed exactly once" n
    st.Pool.tasks_executed;
  Alcotest.(check int) "items are claimed, never stolen" 0 st.Pool.steals;
  Pool.shutdown pool;
  let st1 = Pool.stats pool in
  Alcotest.(check int) "no spawned workers after shutdown" 0
    st1.Pool.spawned_domains

(* ------------------------------------------------------------------ *)
(* Calibration fallback                                                 *)

let one_core = Calibrate.probe ~force_cores:1 ()

let test_calibrate_force_cores () =
  Alcotest.(check int) "1 core -> sequential" 1 one_core.Calibrate.recommended;
  Alcotest.(check int) "cores recorded" 1 one_core.Calibrate.cores_detected;
  Alcotest.(check int)
    "sequential keeps the default minor heap"
    Calibrate.default_minor_heap_words one_core.Calibrate.minor_heap_words;
  Alcotest.(check bool)
    "note says sequential" true
    (let note = one_core.Calibrate.probe_note in
     let has needle =
       let nl = String.length needle and l = String.length note in
       let rec go i = i + nl <= l && (String.sub note i nl = needle || go (i + 1)) in
       go 0
     in
     has "sequential");
  let big = Calibrate.probe ~force_cores:8 () in
  Alcotest.(check int) "8 forced cores -> 8 domains" 8
    big.Calibrate.recommended;
  Alcotest.(check int)
    "parallel pools get the enlarged minor heap"
    Calibrate.parallel_minor_heap_words big.Calibrate.minor_heap_words

let test_calibrated_pool_degrades_to_sequential () =
  Calibrate.with_override one_core (fun () ->
      Alcotest.(check int) "recommended is overridden" 1 (Pool.recommended ());
      let pool = Pool.create () in
      Alcotest.(check int) "pool size 1" 1 (Pool.size pool);
      Alcotest.(check int)
        "zero spawned domains" 0 (Pool.stats pool).Pool.spawned_domains;
      let order = ref [] in
      let ys =
        Pool.map pool
          (fun x ->
            order := x :: !order;
            x + 1)
          [ 5; 3; 9 ]
      in
      Pool.shutdown pool;
      Alcotest.(check (list int)) "sequential results" [ 6; 4; 10 ] ys;
      Alcotest.(check (list int))
        "executed left to right in the calling domain" [ 5; 3; 9 ]
        (List.rev !order))

let contains_sub note needle =
  let nl = String.length needle and l = String.length note in
  let rec go i = i + nl <= l && (String.sub note i nl = needle || go (i + 1)) in
  go 0

let test_calibrated_supervisor_warns () =
  Calibrate.with_override one_core (fun () ->
      Supervisor.with_supervisor (fun sup ->
          Alcotest.(check bool)
            "no pool on a calibrated 1-core host" true
            (Supervisor.pool sup = None);
          Alcotest.(check bool)
            "calibration fallback is not a degradation" false
            (Supervisor.degraded sup);
          let s = Supervisor.summary sup in
          Alcotest.(check bool)
            "summary carries the calibration note" true
            (List.exists
               (fun w -> contains_sub w "calibration" && contains_sub w "sequential")
               s.Supervisor.warnings)))

let test_create_opt_and_spawn_failure_paths () =
  (* zero-worker create_opt under the 1-core override: nothing to
     spawn, nothing to clean up *)
  Calibrate.with_override one_core (fun () ->
      match Pool.create_opt () with
      | Error e -> Alcotest.fail ("create_opt on 1 core: " ^ e)
      | Ok pool ->
        Alcotest.(check int)
          "no workers spawned" 0 (Pool.stats pool).Pool.spawned_domains;
        Pool.shutdown pool);
  (* and the partial-spawn cleanup path proper: an injected spawn
     failure must degrade the supervisor, not abort it *)
  Supervisor.with_supervisor ~domains:4 ~fault:Supervisor.Spawn_failure
    (fun sup ->
      Alcotest.(check bool) "degraded" true (Supervisor.degraded sup);
      Alcotest.(check bool) "no pool" true (Supervisor.pool sup = None);
      let s = Supervisor.summary sup in
      Alcotest.(check bool)
        "spawn-failure warning mentions sequential" true
        (List.exists (fun w -> contains_sub w "sequential") s.Supervisor.warnings))

let test_override_restored () =
  let before = Calibrate.recommended () in
  (try
     Calibrate.with_override
       (Calibrate.probe ~force_cores:7 ())
       (fun () ->
         Alcotest.(check int) "override active" 7 (Calibrate.recommended ());
         raise Exit)
   with Exit -> ());
  Alcotest.(check int)
    "override removed even on exception" before
    (Calibrate.recommended ())

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "pool: 10k-task stress bit-identical" `Quick
      test_stress_10k_bit_identical;
    Alcotest.test_case "pool: steal under shutdown" `Quick
      test_steal_under_shutdown;
    Alcotest.test_case "pool: nested map" `Quick test_nested_map;
    Alcotest.test_case "pool: two callers, nested" `Quick
      test_two_callers_nested;
    Alcotest.test_case "pool: lowest failure wins" `Quick test_lowest_failure;
    Alcotest.test_case "pool: every item settles" `Quick
      test_every_item_settles;
    Alcotest.test_case "pool: scheduling stats" `Quick test_pool_stats;
    Alcotest.test_case "calibrate: force_cores decisions" `Quick
      test_calibrate_force_cores;
    Alcotest.test_case "calibrate: 1-core pool is sequential" `Quick
      test_calibrated_pool_degrades_to_sequential;
    Alcotest.test_case "calibrate: supervisor records the fallback" `Quick
      test_calibrated_supervisor_warns;
    Alcotest.test_case "calibrate: create_opt and spawn-failure paths" `Quick
      test_create_opt_and_spawn_failure_paths;
    Alcotest.test_case "calibrate: override restored on exception" `Quick
      test_override_restored;
  ]
