open Tpro_hw

(* [below.(c)]: no frame of colour [c] below it is free.  Frame [f] has
   colour [f mod n_colours], so a colour's frames are every
   [n_colours]-th one and its lowest free frame is found by stepping
   from the cursor; allocation moves the cursor up, [free] moves it
   down. *)
type t = { mem : Mem.t; n_colours : int; free : bool array; below : int array }

let reserved_kernel_colour = 0

let create mem ~n_colours =
  if n_colours <= 0 then invalid_arg "Frame_alloc.create: n_colours";
  let free = Array.make (Mem.n_frames mem) true in
  for f = 0 to Mem.n_frames mem - 1 do
    if Mem.owner_of_frame mem f <> Mem.free_owner then free.(f) <- false
  done;
  { mem; n_colours; free; below = Array.init n_colours Fun.id }

let n_colours t = t.n_colours

let colour_of_frame t frame = frame mod t.n_colours

(* The lowest free frame of colour [c], or a frame past the last one. *)
let lowest_free t c =
  let n = Array.length t.free in
  let f = ref t.below.(c) in
  while !f < n && not t.free.(!f) do
    f := !f + t.n_colours
  done;
  t.below.(c) <- !f;
  !f

let alloc t ~owner ~colours =
  let n = Array.length t.free in
  let best =
    List.fold_left
      (fun best c ->
        if c < 0 || c >= t.n_colours then best else min best (lowest_free t c))
      n colours
  in
  if best >= n then None
  else begin
    t.free.(best) <- false;
    t.below.(colour_of_frame t best) <- best + t.n_colours;
    Mem.set_owner t.mem ~frame:best ~owner;
    Some best
  end

let alloc_exn t ~owner ~colours =
  match alloc t ~owner ~colours with
  | Some f -> f
  | None -> failwith "Frame_alloc: out of frames for requested colours"

let free t ~frame =
  if frame < 0 || frame >= Array.length t.free then
    invalid_arg "Frame_alloc.free: frame out of range";
  t.free.(frame) <- true;
  let c = colour_of_frame t frame in
  t.below.(c) <- min t.below.(c) frame;
  Mem.set_owner t.mem ~frame ~owner:Mem.free_owner

let free_count t ~colour =
  let n = ref 0 in
  Array.iteri (fun f b -> if b && colour_of_frame t f = colour then incr n) t.free;
  !n

let all_colours t = List.init t.n_colours (fun c -> c)

let pp ppf t =
  let free = Array.fold_left (fun n b -> if b then n + 1 else n) 0 t.free in
  Format.fprintf ppf "frame_alloc: %d free frames, %d colours" free t.n_colours
