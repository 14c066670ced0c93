open Tpro_hw
open Tpro_kernel

let mk () =
  let mem = Mem.create ~n_frames:64 () in
  (mem, Frame_alloc.create mem ~n_colours:4)

let test_colour_of_frame () =
  let _, a = mk () in
  Alcotest.(check int) "frame 0" 0 (Frame_alloc.colour_of_frame a 0);
  Alcotest.(check int) "frame 5" 1 (Frame_alloc.colour_of_frame a 5);
  Alcotest.(check int) "frame 7" 3 (Frame_alloc.colour_of_frame a 7)

let test_alloc_respects_colours () =
  let mem, a = mk () in
  match Frame_alloc.alloc a ~owner:9 ~colours:[ 2 ] with
  | None -> Alcotest.fail "allocation should succeed"
  | Some f ->
    Alcotest.(check int) "colour 2 frame" 2 (Frame_alloc.colour_of_frame a f);
    Alcotest.(check int) "ownership recorded" 9 (Mem.owner_of_frame mem f)

let test_alloc_ascending () =
  let _, a = mk () in
  let f1 = Frame_alloc.alloc_exn a ~owner:1 ~colours:[ 0; 1; 2; 3 ] in
  let f2 = Frame_alloc.alloc_exn a ~owner:1 ~colours:[ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "lowest frames first" true (f1 < f2);
  Alcotest.(check int) "first frame is 0" 0 f1

let test_exhaustion () =
  let _, a = mk () in
  (* 16 frames of each colour *)
  for _ = 1 to 16 do
    ignore (Frame_alloc.alloc_exn a ~owner:1 ~colours:[ 1 ])
  done;
  Alcotest.(check (option int)) "colour 1 exhausted" None
    (Frame_alloc.alloc a ~owner:1 ~colours:[ 1 ]);
  Alcotest.(check bool) "other colours still available" true
    (Frame_alloc.alloc a ~owner:1 ~colours:[ 2 ] <> None)

let test_free_and_reuse () =
  let mem, a = mk () in
  let f = Frame_alloc.alloc_exn a ~owner:1 ~colours:[ 0 ] in
  Frame_alloc.free a ~frame:f;
  Alcotest.(check int) "freed" Mem.free_owner (Mem.owner_of_frame mem f);
  Alcotest.(check int) "reused" f (Frame_alloc.alloc_exn a ~owner:2 ~colours:[ 0 ])

let test_free_count () =
  let _, a = mk () in
  Alcotest.(check int) "initial" 16 (Frame_alloc.free_count a ~colour:3);
  ignore (Frame_alloc.alloc_exn a ~owner:1 ~colours:[ 3 ]);
  Alcotest.(check int) "one taken" 15 (Frame_alloc.free_count a ~colour:3)

let test_respects_preexisting_ownership () =
  let mem = Mem.create ~n_frames:8 () in
  Mem.set_owner mem ~frame:0 ~owner:42;
  let a = Frame_alloc.create mem ~n_colours:4 in
  let f = Frame_alloc.alloc_exn a ~owner:1 ~colours:[ 0 ] in
  Alcotest.(check bool) "already-owned frame skipped" true (f <> 0)

let prop_alloc_never_two_owners =
  QCheck.Test.make ~name:"no frame handed out twice" ~count:100
    QCheck.(list (int_bound 3))
    (fun colour_requests ->
      let _, a = mk () in
      let frames =
        List.filter_map
          (fun c -> Frame_alloc.alloc a ~owner:1 ~colours:[ c ])
          colour_requests
      in
      List.length frames = List.length (List.sort_uniq compare frames))

(* The allocator against the linear scan its per-colour cursors
   replaced: the lowest free frame whose colour is in the list, found by
   walking every frame from 0.  Random alloc/free sequences over
   [n_frames] frames (some owned before the allocator exists) and
   [n_colours] colours; colour lists may repeat colours and name
   colours out of range, negative ones included.  Every allocation must
   return the reference's frame, and the free counts must agree at the
   end. *)
type op = Alloc of int list | Free of int

let gen_ops =
  QCheck.Gen.(
    list_size (int_bound 120)
      (frequency
         [
           (3, map (fun cs -> Alloc cs) (list_size (int_bound 5) (int_range (-2) 9)));
           (1, map (fun f -> Free f) (int_bound 1000));
         ]))

let prop_alloc_matches_linear_scan =
  QCheck.Test.make ~name:"alloc == linear scan" ~count:300
    QCheck.(
      triple (int_range 1 8) (int_range 1 70)
        (make ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops)) gen_ops))
    (fun (n_colours, n_frames, ops) ->
      let mem = Mem.create ~n_frames () in
      for f = 0 to n_frames - 1 do
        if f mod 7 = 3 then Mem.set_owner mem ~frame:f ~owner:99
      done;
      let a = Frame_alloc.create mem ~n_colours in
      let free = Array.init n_frames (fun f -> f mod 7 <> 3) in
      let scan colours =
        let rec go f =
          if f >= n_frames then None
          else if free.(f) && List.mem (f mod n_colours) colours then Some f
          else go (f + 1)
        in
        go 0
      in
      List.for_all
        (function
          | Alloc colours ->
            let want = scan colours in
            Option.iter (fun f -> free.(f) <- false) want;
            Frame_alloc.alloc a ~owner:1 ~colours = want
          | Free f ->
            let f = f mod n_frames in
            free.(f) <- true;
            Frame_alloc.free a ~frame:f;
            true)
        ops
      && List.for_all
           (fun c ->
             Frame_alloc.free_count a ~colour:c
             = List.length
                 (List.filter
                    (fun f -> free.(f) && f mod n_colours = c)
                    (List.init n_frames Fun.id)))
           (List.init n_colours Fun.id))

let suite =
  [
    Alcotest.test_case "colour_of_frame" `Quick test_colour_of_frame;
    Alcotest.test_case "alloc respects colours" `Quick test_alloc_respects_colours;
    Alcotest.test_case "alloc ascending" `Quick test_alloc_ascending;
    Alcotest.test_case "exhaustion" `Quick test_exhaustion;
    Alcotest.test_case "free and reuse" `Quick test_free_and_reuse;
    Alcotest.test_case "free_count" `Quick test_free_count;
    Alcotest.test_case "respects preexisting ownership" `Quick
      test_respects_preexisting_ownership;
    QCheck_alcotest.to_alcotest prop_alloc_never_two_owners;
    QCheck_alcotest.to_alcotest prop_alloc_matches_linear_scan;
  ]
