open Tpro_hw

let test_initial_not_taken () =
  let b = Bpred.create () in
  Alcotest.(check bool) "weakly not-taken at reset" false
    (Bpred.predict b ~pc:0x400)

let test_learns_taken () =
  let b = Bpred.create () in
  ignore (Bpred.update b ~pc:0x400 ~taken:true);
  ignore (Bpred.update b ~pc:0x400 ~taken:true);
  (* history changed, so hammer the same history pattern *)
  let correct = Bpred.update b ~pc:0x400 ~taken:true in
  ignore correct;
  (* after repeated taken outcomes the counter for the current index must
     eventually saturate; drive many iterations *)
  let hits = ref 0 in
  for _ = 1 to 64 do
    if Bpred.update b ~pc:0x400 ~taken:true then incr hits
  done;
  Alcotest.(check bool) "mostly correct on a monotone branch" true (!hits > 48)

let test_flush_resets () =
  let b = Bpred.create () in
  for _ = 1 to 32 do
    ignore (Bpred.update b ~pc:0x400 ~taken:true)
  done;
  let d_trained = Bpred.digest b in
  Bpred.flush b;
  let fresh = Bpred.create () in
  Alcotest.(check int64) "flush equals power-on state" (Bpred.digest fresh)
    (Bpred.digest b);
  Alcotest.(check bool) "training had changed the state" true
    (d_trained <> Bpred.digest b)

(* A flushed predictor predicts exactly as a new one: same state (the
   fold covers every counter and the history) and the same outcome on
   every update of a long replay. *)
let replays_fresh b =
  let fresh = Bpred.create () in
  let rng = Rng.create 0xb9 in
  Bpred.digest_fold b = Bpred.digest_fold fresh
  && List.for_all
       (fun _ ->
         let pc = Rng.int rng 4096 * 4 in
         let taken = Rng.bool rng in
         Bpred.update b ~pc ~taken = Bpred.update fresh ~pc ~taken)
       (List.init 3000 Fun.id)
  && Bpred.digest_fold b = Bpred.digest_fold fresh

(* [flush] resets the counters its bounded log recorded.  Moving every
   counter overflows any log shorter than the table, and the flush must
   then reset the whole table.  Not-taken outcomes keep the history at
   0, so the branch at pc [4i] moves counter [i]. *)
let test_flush_after_log_overflow () =
  let b = Bpred.create () in
  for i = 0 to 1023 do
    ignore (Bpred.update b ~pc:(4 * i) ~taken:false : bool)
  done;
  Alcotest.(check bool) "every counter moved" true
    (Bpred.digest_fold b <> Bpred.digest_fold (Bpred.create ()));
  Bpred.flush b;
  Alcotest.(check bool) "flushed after an overflow, replays as new" true
    (replays_fresh b)

let prop_flush_replays_fresh =
  QCheck.Test.make ~name:"a flushed predictor replays as a new one" ~count:60
    QCheck.(list_of_size Gen.(0 -- 2500) (pair (int_bound 4095) bool))
    (fun branches ->
      let b = Bpred.create () in
      List.iter
        (fun (pc, taken) -> ignore (Bpred.update b ~pc:(4 * pc) ~taken : bool))
        branches;
      Bpred.flush b;
      replays_fresh b)

let test_aliasing () =
  (* two branches mapping to the same slot interfere — that is the channel *)
  let b = Bpred.create ~history_bits:1 ~table_bits:4 () in
  for _ = 1 to 32 do
    ignore (Bpred.update b ~pc:0x0 ~taken:true)
  done;
  let d_with_training = Bpred.digest b in
  let b2 = Bpred.create ~history_bits:1 ~table_bits:4 () in
  for _ = 1 to 32 do
    ignore (Bpred.update b2 ~pc:(16 * 4) ~taken:true)
  done;
  (* pc 0 and pc 64 alias in a 16-entry table *)
  Alcotest.(check int64) "aliased branches share state" d_with_training
    (Bpred.digest b2)

let test_validation () =
  Alcotest.check_raises "history bits range"
    (Invalid_argument "Bpred.create: history_bits out of range") (fun () ->
      ignore (Bpred.create ~history_bits:0 ()))

let prop_update_returns_prediction =
  QCheck.Test.make ~name:"update reports whether predict was correct"
    ~count:300
    QCheck.(list (pair (int_bound 1023) bool))
    (fun branches ->
      let b = Bpred.create () in
      List.for_all
        (fun (pc, taken) ->
          let predicted = Bpred.predict b ~pc in
          let correct = Bpred.update b ~pc ~taken in
          correct = (predicted = taken))
        branches)

let suite =
  [
    Alcotest.test_case "initial not taken" `Quick test_initial_not_taken;
    Alcotest.test_case "learns taken" `Quick test_learns_taken;
    Alcotest.test_case "flush resets" `Quick test_flush_resets;
    Alcotest.test_case "flush after its log overflows" `Quick
      test_flush_after_log_overflow;
    Alcotest.test_case "aliasing" `Quick test_aliasing;
    Alcotest.test_case "validation" `Quick test_validation;
    QCheck_alcotest.to_alcotest prop_update_returns_prediction;
    QCheck_alcotest.to_alcotest prop_flush_replays_fresh;
  ]
