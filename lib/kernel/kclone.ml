open Tpro_hw

type image = {
  text_frame_tbl : int array;  (* frame of each text frame-slot *)
  data_frame_tbl : int array;
  text_line_tbl : int array;   (* physical address of each text line *)
  data_line_tbl : int array;   (* physical address of each data line *)
  img_owner : int;
}

let text_lines = 64
let data_lines = 16

type path = { first_line : int; n_lines : int }

(* Fixed layout of handler code within the kernel text.  Distinct trap
   kinds occupy disjoint line windows, so which kind ran is visible in the
   cache footprint of a *shared* image — the channel that kernel cloning
   closes. *)
let path_of_kind = function
  | "null" -> { first_line = 0; n_lines = 4 }
  | "info" -> { first_line = 8; n_lines = 8 }
  | "send" -> { first_line = 16; n_lines = 10 }
  | "recv" -> { first_line = 26; n_lines = 10 }
  | "arm_irq" -> { first_line = 36; n_lines = 6 }
  | "fault" -> { first_line = 42; n_lines = 8 }
  | "irq" -> { first_line = 50; n_lines = 6 }
  | "switch" -> { first_line = 56; n_lines = 6 }
  | "switch_exit" -> { first_line = 62; n_lines = 2 }
  | kind -> invalid_arg ("Kclone.path_of_kind: unknown trap kind " ^ kind)

let trap_kinds =
  [ "null"; "info"; "send"; "recv"; "arm_irq"; "fault"; "irq"; "switch";
    "switch_exit" ]

let owner img = img.img_owner

let frames_for mem ~line_bits ~lines =
  let bytes = lines lsl line_bits in
  let page = Mem.page_size mem in
  max 1 ((bytes + page - 1) / page)

let alloc_frames alloc ~owner ~colours ~n =
  Array.init n (fun _ -> Frame_alloc.alloc_exn alloc ~owner ~colours)

(* The physical address of each of [lines] lines laid out through the
   frame table [tbl]. *)
let line_table mem ~line_bits tbl ~lines =
  let page_bits = Mem.page_bits mem in
  Array.init lines (fun line ->
      let byte = line lsl line_bits in
      let offset = byte land ((1 lsl page_bits) - 1) in
      (tbl.(byte lsr page_bits) lsl page_bits) lor offset)

(* Data frames are allocated before text frames.  The order is pinned:
   it decides which kernel-colour frames each part gets, and so the
   cache sets the kernel touches, which E1's table depends on. *)
let boot alloc mem ~line_bits =
  let colours = [ Frame_alloc.reserved_kernel_colour ] in
  let owner = Cache.shared_owner in
  let data_frame_tbl =
    alloc_frames alloc ~owner ~colours
      ~n:(frames_for mem ~line_bits ~lines:data_lines)
  in
  let text_frame_tbl =
    alloc_frames alloc ~owner ~colours
      ~n:(frames_for mem ~line_bits ~lines:text_lines)
  in
  {
    text_frame_tbl;
    data_frame_tbl;
    text_line_tbl = line_table mem ~line_bits text_frame_tbl ~lines:text_lines;
    data_line_tbl = line_table mem ~line_bits data_frame_tbl ~lines:data_lines;
    img_owner = owner;
  }

let clone alloc mem ~line_bits ~shared ~colours ~owner =
  let text_frame_tbl =
    alloc_frames alloc ~owner ~colours
      ~n:(frames_for mem ~line_bits ~lines:text_lines)
  in
  {
    shared with
    text_frame_tbl;
    text_line_tbl = line_table mem ~line_bits text_frame_tbl ~lines:text_lines;
    img_owner = owner;
  }

let text_line img i = img.text_line_tbl.(i)
let data_line img i = img.data_line_tbl.(i)

let text_paddrs img { first_line; n_lines } =
  if first_line < 0 || first_line + n_lines > text_lines then
    invalid_arg "Kclone.text_paddrs: path outside kernel text";
  List.init n_lines (fun i -> text_line img (first_line + i))

let data_paddrs img = Array.to_list img.data_line_tbl

let text_frames img = Array.to_list img.text_frame_tbl
let data_frames img = Array.to_list img.data_frame_tbl

let same_text a b = a.text_frame_tbl == b.text_frame_tbl
