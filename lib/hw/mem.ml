type t = { page_bits : int; owners : int array }

let free_owner = -1

let create ?(page_bits = 12) ~n_frames () =
  if n_frames <= 0 then invalid_arg "Mem.create: n_frames must be positive";
  if page_bits < 6 || page_bits > 20 then
    invalid_arg "Mem.create: page_bits out of range";
  { page_bits; owners = Array.make n_frames free_owner }

let reset t = Array.fill t.owners 0 (Array.length t.owners) free_owner

let page_bits t = t.page_bits
let page_size t = 1 lsl t.page_bits
let n_frames t = Array.length t.owners

let check_frame t frame =
  if frame < 0 || frame >= n_frames t then
    invalid_arg "Mem: frame out of range"

let owner_of_frame t frame =
  check_frame t frame;
  t.owners.(frame)

let set_owner t ~frame ~owner =
  check_frame t frame;
  t.owners.(frame) <- owner

let paddr_of_frame t frame =
  check_frame t frame;
  frame lsl t.page_bits

let frame_of_paddr t paddr = paddr lsr t.page_bits

let frames_owned_by t owner =
  let acc = ref [] in
  for frame = n_frames t - 1 downto 0 do
    if t.owners.(frame) = owner then acc := frame :: !acc
  done;
  !acc

let pp ppf t =
  let used =
    Array.fold_left (fun n o -> if o <> free_owner then n + 1 else n) 0 t.owners
  in
  Format.fprintf ppf "mem: %d/%d frames used (%dB pages)" used (n_frames t)
    (page_size t)
