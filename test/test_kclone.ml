open Tpro_hw
open Tpro_kernel

let mk () =
  let mem = Mem.create ~n_frames:64 () in
  let alloc = Frame_alloc.create mem ~n_colours:4 in
  (mem, alloc, Kclone.boot alloc mem ~line_bits:6)

let test_boot_in_kernel_colour () =
  let _, alloc, img = mk () in
  List.iter
    (fun f ->
      Alcotest.(check int) "text frame colour" Frame_alloc.reserved_kernel_colour
        (Frame_alloc.colour_of_frame alloc f))
    (Kclone.text_frames img);
  List.iter
    (fun f ->
      Alcotest.(check int) "data frame colour" Frame_alloc.reserved_kernel_colour
        (Frame_alloc.colour_of_frame alloc f))
    (Kclone.data_frames img);
  Alcotest.(check int) "shared image owner" Cache.shared_owner
    (Kclone.owner img);
  (* boot allocates the data frames first: E1's table depends on which
     frames, and so which cache sets, each part gets *)
  Alcotest.(check bool) "data frames precede text frames" true
    (List.for_all
       (fun d -> List.for_all (fun t -> d < t) (Kclone.text_frames img))
       (Kclone.data_frames img))

let test_paths_within_text () =
  let _, _, img = mk () in
  List.iter
    (fun kind ->
      let p = Kclone.path_of_kind kind in
      let addrs = Kclone.text_paddrs img p in
      Alcotest.(check int)
        (kind ^ " path length")
        p.Kclone.n_lines (List.length addrs))
    Kclone.trap_kinds

let test_paths_disjoint () =
  let _, _, img = mk () in
  let all_kinds = Kclone.trap_kinds in
  List.iteri
    (fun i k1 ->
      List.iteri
        (fun j k2 ->
          if i < j then begin
            let a1 = Kclone.text_paddrs img (Kclone.path_of_kind k1) in
            let a2 = Kclone.text_paddrs img (Kclone.path_of_kind k2) in
            List.iter
              (fun a ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s and %s disjoint" k1 k2)
                  false (List.mem a a2))
              a1
          end)
        all_kinds)
    all_kinds

let test_unknown_kind () =
  Alcotest.check_raises "unknown trap kind"
    (Invalid_argument "Kclone.path_of_kind: unknown trap kind bogus") (fun () ->
      ignore (Kclone.path_of_kind "bogus"))

let test_clone_separate_text_shared_data () =
  let mem, alloc, shared = mk () in
  let clone =
    Kclone.clone alloc mem ~line_bits:6 ~shared ~colours:[ 2 ] ~owner:7
  in
  Alcotest.(check bool) "text frames differ" false (Kclone.same_text shared clone);
  Alcotest.(check (list int)) "data frames shared"
    (Kclone.data_frames shared) (Kclone.data_frames clone);
  Alcotest.(check int) "clone owner" 7 (Kclone.owner clone);
  List.iter
    (fun f ->
      Alcotest.(check int) "clone text colour" 2
        (Frame_alloc.colour_of_frame alloc f))
    (Kclone.text_frames clone)

let test_data_paddrs () =
  let _, _, img = mk () in
  let addrs = Kclone.data_paddrs img in
  Alcotest.(check int) "all data lines" Kclone.data_lines (List.length addrs);
  (* consecutive lines are 64 bytes apart within a frame *)
  match addrs with
  | a :: b :: _ -> Alcotest.(check int) "line stride" 64 (b - a)
  | _ -> Alcotest.fail "expected at least two data lines"

let test_path_bounds_checked () =
  let _, _, img = mk () in
  Alcotest.check_raises "path outside text"
    (Invalid_argument "Kclone.text_paddrs: path outside kernel text")
    (fun () ->
      ignore
        (Kclone.text_paddrs img
           { Kclone.first_line = 60; n_lines = 10 }))

let suite =
  [
    Alcotest.test_case "boot in kernel colour" `Quick test_boot_in_kernel_colour;
    Alcotest.test_case "paths within text" `Quick test_paths_within_text;
    Alcotest.test_case "trap paths disjoint" `Quick test_paths_disjoint;
    Alcotest.test_case "unknown kind" `Quick test_unknown_kind;
    Alcotest.test_case "clone separates text, shares data" `Quick
      test_clone_separate_text_shared_data;
    Alcotest.test_case "data paddrs" `Quick test_data_paddrs;
    Alcotest.test_case "path bounds checked" `Quick test_path_bounds_checked;
  ]
