type geometry = { sets : int; ways : int; line_bits : int }

type replacement = Lru | Fifo | Pseudo_random of int

(* Per-line state lives in flat unboxed storage, one slot per (set, way)
   at index [set * ways + way]: immediate-int arrays for tags, owners and
   stamps, and a packed byte per line for the valid/dirty bits.  No
   per-line records, no per-set boxes — a flush resets the touched sets
   with inline loops and the digest machinery below can cache per-set
   digests in an unboxed Bigarray. *)

let meta_valid = 0x1
let meta_dirty = 0x2

type int64_flat =
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Digests must stay bit-identical to the historical fold (they feed the
   latency jitter), and [Rng.chain] is order-sensitive and
   non-invertible, so "incremental" means *memoised*, not algebraically
   updated: we keep every per-set digest plus the prefix chain
   [prefix.(s) = chain over sets 0..s] and a watermark [first_stale]
   below which every prefix entry is still valid.  A line write stales
   exactly its set; [digest] then re-chains only from the watermark using
   cached per-set digests, and returns the cached tail in O(1) when
   nothing changed.  The empty-state tables are interned per geometry so
   creating and flushing a cache never re-folds the empty state. *)
type empty_tables = {
  e_sets : int64_flat;       (* per-set digest of an empty set *)
  e_prefix : int64_flat;     (* prefix chain over the empty sets *)
}

type t = {
  geometry : geometry;
  tags : int array;          (* sets * ways *)
  meta : Bytes.t;            (* sets * ways: valid / dirty bits *)
  owner : int array;         (* sets * ways *)
  stamp : int array;         (* sets * ways: last touch (LRU), fill time (FIFO) *)
  set_ticks : int array;     (* per-set access counts (replacement state) *)
  mutable tick : int;
  repl : replacement;
  cache_name : string;
  set_mask : int;            (* sets - 1, for the set-index extraction *)
  tag_shift : int;           (* line_bits + log2 sets, precomputed *)
  (* O(1) occupancy counters (flush reports, diagnostics) *)
  mutable n_valid : int;
  mutable n_dirty : int;
  (* incremental digest state *)
  set_digest : int64_flat;   (* cached per-set digests *)
  set_clean : Bytes.t;       (* 1 iff set_digest.(s) is current *)
  prefix : int64_flat;       (* cached digest prefix chain *)
  mutable first_stale : int; (* prefix valid strictly below this set *)
  empty : empty_tables;      (* power-on state, for flush resets *)
  mutable changes : int;     (* bumped by every digest-visible change *)
}

type evicted = { tag : int; dirty : bool; owner : int }

type access_result = Hit | Miss of evicted option

let shared_owner = -2

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let geometry ?(sets = 64) ?(ways = 4) ?(line_bits = 6) () =
  if not (is_power_of_two sets) then
    invalid_arg "Cache.geometry: sets must be a power of two";
  if ways <= 0 then invalid_arg "Cache.geometry: ways must be positive";
  if line_bits < 2 || line_bits > 12 then
    invalid_arg "Cache.geometry: line_bits out of range";
  { sets; ways; line_bits }

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* ------------------------------------------------------------------ *)
(* Digest arithmetic — the single definition both the memoised path and
   the from-scratch re-fold go through (via Rng.chain/chain_int).       *)

(* One line's contribution to its set digest. *)
let line_bits_of ~m ~tag =
  if m land meta_valid = 0 then 0
  else (tag lsl 2) lor (if m land meta_dirty <> 0 then 2 else 0) lor 1

(* Set digest recomputed from the flat line state. *)
let compute_set_digest ~ways ~tags ~meta set =
  let base = set * ways in
  let acc = ref (Int64.of_int (set + 1)) in
  for w = 0 to ways - 1 do
    let m = Char.code (Bytes.unsafe_get meta (base + w)) in
    acc := Rng.chain_int !acc (line_bits_of ~m ~tag:(Array.unsafe_get tags (base + w)))
  done;
  !acc

(* Empty-state digest tables, interned per (sets, ways): computing them
   is the one remaining O(state) fold, paid once per geometry per
   process instead of once per create/flush. *)
let empty_memo : (int * int, empty_tables) Hashtbl.t = Hashtbl.create 8
let empty_memo_lock = Mutex.create ()

let empty_tables_for ~sets ~ways =
  Mutex.lock empty_memo_lock;
  let tables =
    match Hashtbl.find_opt empty_memo (sets, ways) with
    | Some e -> e
    | None ->
      let e_sets = Bigarray.(Array1.create int64 c_layout sets) in
      let e_prefix = Bigarray.(Array1.create int64 c_layout sets) in
      let acc = ref 1L in
      for set = 0 to sets - 1 do
        let d = ref (Int64.of_int (set + 1)) in
        for _ = 1 to ways do
          d := Rng.chain_int !d 0
        done;
        Bigarray.Array1.unsafe_set e_sets set !d;
        acc := Rng.chain !acc !d;
        Bigarray.Array1.unsafe_set e_prefix set !acc
      done;
      let e = { e_sets; e_prefix } in
      Hashtbl.replace empty_memo (sets, ways) e;
      e
  in
  Mutex.unlock empty_memo_lock;
  tables

let create ?(name = "cache") ?(replacement = Lru) geometry =
  let sets = geometry.sets and ways = geometry.ways in
  let n = sets * ways in
  let empty = empty_tables_for ~sets ~ways in
  let set_digest = Bigarray.(Array1.create int64 c_layout sets) in
  let prefix = Bigarray.(Array1.create int64 c_layout sets) in
  Bigarray.Array1.blit empty.e_sets set_digest;
  Bigarray.Array1.blit empty.e_prefix prefix;
  {
    geometry;
    tags = Array.make n 0;
    meta = Bytes.make n '\000';
    owner = Array.make n shared_owner;
    stamp = Array.make n 0;
    set_ticks = Array.make sets 0;
    tick = 0;
    repl = replacement;
    cache_name = name;
    set_mask = sets - 1;
    tag_shift = geometry.line_bits + log2 sets;
    n_valid = 0;
    n_dirty = 0;
    set_digest;
    set_clean = Bytes.make sets '\001';
    prefix;
    first_stale = sets;
    empty;
    changes = 0;
  }

let replacement t = t.repl

let name t = t.cache_name
let geom t = t.geometry

let line_size g = 1 lsl g.line_bits
let size_bytes g = g.sets * g.ways * line_size g

let n_colours g ~page_bits =
  let span = g.sets * line_size g in
  max 1 (span lsr page_bits)

let colour_of_paddr g ~page_bits paddr =
  (paddr lsr page_bits) land (n_colours g ~page_bits - 1)

let colour_of_set g ~page_bits set =
  let sets_per_colour = max 1 (g.sets / n_colours g ~page_bits) in
  set / sets_per_colour

let set_of_paddr t paddr = (paddr lsr t.geometry.line_bits) land t.set_mask

let tag_of_paddr t paddr = paddr lsr t.tag_shift

(* Inverse of (set_of_paddr, tag_of_paddr), up to the line offset: rebuilds
   the base physical address of a line from the shifts precomputed at
   creation.  Used by the machine to write evicted dirty lines back into
   the next level. *)
let paddr_of_line t ~set ~tag = (tag lsl t.tag_shift) lor (set lsl t.geometry.line_bits)

(* A (valid, dirty, tag) change in [set] stales that set's cached digest
   and every prefix entry from it upward.  Recency/owner updates do not
   touch the digest and must not come through here. *)
let mark_set_changed t set =
  Bytes.unsafe_set t.set_clean set '\000';
  if set < t.first_stale then t.first_stale <- set;
  t.changes <- t.changes + 1

let changes t = t.changes

let find_way t ~base tag =
  let ways = t.geometry.ways in
  let rec go w =
    if w >= ways then -1
    else
      let i = base + w in
      if
        Char.code (Bytes.unsafe_get t.meta i) land meta_valid <> 0
        && Array.unsafe_get t.tags i = tag
      then w
      else go (w + 1)
  in
  go 0

(* Victim selection: first invalid way, else per the replacement policy.
   Every policy depends only on the set's own history, which is what the
   paper's Case-1 argument needs. *)
let victim_way t ~set ~base =
  let ways = t.geometry.ways in
  let rec invalid w =
    if w >= ways then -1
    else if Char.code (Bytes.unsafe_get t.meta (base + w)) land meta_valid = 0
    then w
    else invalid (w + 1)
  in
  match invalid 0 with
  | w when w >= 0 -> w
  | _ -> (
    match t.repl with
    | Lru | Fifo ->
      let best = ref 0 in
      for w = 1 to ways - 1 do
        if t.stamp.(base + w) < t.stamp.(base + !best) then best := w
      done;
      !best
    | Pseudo_random seed ->
      let h =
        Rng.hash_int (Int64.of_int seed)
          (Int64.of_int ((set lsl 24) lxor t.set_ticks.(set)))
      in
      h mod ways)

let access t ~owner ~write paddr =
  t.tick <- t.tick + 1;
  let set = set_of_paddr t paddr in
  t.set_ticks.(set) <- t.set_ticks.(set) + 1;
  let tag = tag_of_paddr t paddr in
  let base = set * t.geometry.ways in
  match find_way t ~base tag with
  | w when w >= 0 ->
    let i = base + w in
    (match t.repl with
    | Lru -> t.stamp.(i) <- t.tick
    | Fifo | Pseudo_random _ -> ());
    (if write then
       let m = Char.code (Bytes.unsafe_get t.meta i) in
       if m land meta_dirty = 0 then begin
         Bytes.unsafe_set t.meta i (Char.chr (m lor meta_dirty));
         t.n_dirty <- t.n_dirty + 1;
         mark_set_changed t set
       end);
    Hit
  | _ ->
    let w = victim_way t ~set ~base in
    let i = base + w in
    let m = Char.code (Bytes.unsafe_get t.meta i) in
    let evicted =
      if m land meta_valid <> 0 then begin
        if m land meta_dirty <> 0 then t.n_dirty <- t.n_dirty - 1;
        Some
          {
            tag = t.tags.(i);
            dirty = m land meta_dirty <> 0;
            owner = t.owner.(i);
          }
      end
      else begin
        t.n_valid <- t.n_valid + 1;
        None
      end
    in
    t.tags.(i) <- tag;
    Bytes.unsafe_set t.meta i
      (Char.chr (meta_valid lor (if write then meta_dirty else 0)));
    if write then t.n_dirty <- t.n_dirty + 1;
    t.owner.(i) <- owner;
    t.stamp.(i) <- t.tick;
    mark_set_changed t set;
    Miss evicted

let probe t paddr =
  let set = set_of_paddr t paddr in
  find_way t ~base:(set * t.geometry.ways) (tag_of_paddr t paddr) >= 0

let owner_of t paddr =
  let set = set_of_paddr t paddr in
  let base = set * t.geometry.ways in
  match find_way t ~base (tag_of_paddr t paddr) with
  | w when w >= 0 -> Some t.owner.(base + w)
  | _ -> None

(* Full invalidation.  Lines only become valid through accesses, and an
   access counts in its set's [set_ticks], so a set whose count is 0 has
   not been touched since the last flush: its valid bits and digest
   entries are still the power-on ones.  Only touched sets are reset.
   Clearing a line's valid bit is enough: its tag, owner and stamp are
   read only while the bit is set, and the fill that sets it writes all
   three.  The prefix chain is still the empty one below the first
   touched set ([first_stale] only ever drops to a touched set), so it
   is restored from there up.  [tick = 0] means no set was touched at
   all: the flush is O(1) with a zero write-back report — the
   clean-flush fast path.  Every flush bumps [changes], clean or not. *)
let flush t =
  let dirty = t.n_dirty in
  t.changes <- t.changes + 1;
  if t.tick <> 0 then begin
    let sets = t.geometry.sets and ways = t.geometry.ways in
    let first = ref sets in
    for set = 0 to sets - 1 do
      if Array.unsafe_get t.set_ticks set <> 0 then begin
        if !first = sets then first := set;
        for i = set * ways to (set * ways) + ways - 1 do
          Bytes.unsafe_set t.meta i '\000'
        done;
        Array.unsafe_set t.set_ticks set 0;
        Bigarray.Array1.unsafe_set t.set_digest set
          (Bigarray.Array1.unsafe_get t.empty.e_sets set);
        Bytes.unsafe_set t.set_clean set '\001'
      end
    done;
    for set = !first to sets - 1 do
      Bigarray.Array1.unsafe_set t.prefix set
        (Bigarray.Array1.unsafe_get t.empty.e_prefix set)
    done;
    t.tick <- 0;
    t.n_valid <- 0;
    t.n_dirty <- 0;
    t.first_stale <- sets
  end;
  dirty

let invalidate_line t paddr =
  let set = set_of_paddr t paddr in
  let base = set * t.geometry.ways in
  match find_way t ~base (tag_of_paddr t paddr) with
  | w when w >= 0 ->
    let i = base + w in
    let m = Char.code (Bytes.unsafe_get t.meta i) in
    let was_dirty = m land meta_dirty <> 0 in
    Bytes.unsafe_set t.meta i '\000';
    t.tags.(i) <- 0;
    t.owner.(i) <- shared_owner;
    t.stamp.(i) <- 0;
    t.n_valid <- t.n_valid - 1;
    if was_dirty then t.n_dirty <- t.n_dirty - 1;
    mark_set_changed t set;
    was_dirty
  | _ -> false

let dirty_count t = t.n_dirty

let valid_count t = t.n_valid

let iter_lines t f =
  let ways = t.geometry.ways in
  for set = 0 to t.geometry.sets - 1 do
    for way = 0 to ways - 1 do
      let i = (set * ways) + way in
      let m = Char.code (Bytes.unsafe_get t.meta i) in
      if m land meta_valid <> 0 then
        f ~set ~way ~tag:t.tags.(i) ~dirty:(m land meta_dirty <> 0)
          ~owner:t.owner.(i)
    done
  done

(* These digests feed the latency functions, so their values must stay
   bit-identical across refactors; the flat-state rewrite only changes
   *when* they are computed (memoised per set, re-chained above the
   stale watermark) — never what they compute. *)
let digest_set t set =
  if Bytes.unsafe_get t.set_clean set = '\001' then
    Bigarray.Array1.unsafe_get t.set_digest set
  else begin
    let d = compute_set_digest ~ways:t.geometry.ways ~tags:t.tags ~meta:t.meta set in
    Bigarray.Array1.unsafe_set t.set_digest set d;
    Bytes.unsafe_set t.set_clean set '\001';
    d
  end

let digest t =
  let sets = t.geometry.sets in
  if t.first_stale < sets then begin
    let acc =
      ref
        (if t.first_stale = 0 then 1L
         else Bigarray.Array1.unsafe_get t.prefix (t.first_stale - 1))
    in
    for set = t.first_stale to sets - 1 do
      acc := Rng.chain !acc (digest_set t set);
      Bigarray.Array1.unsafe_set t.prefix set !acc
    done;
    t.first_stale <- sets
  end;
  Bigarray.Array1.unsafe_get t.prefix (sets - 1)

(* Colour [c] owns the run of [sets / n_colours] consecutive sets from
   [c * run] (one set each, and none for [c >= sets], when there are more
   colours than sets; see [colour_of_set]), so walking the owned colours
   in ascending order visits exactly the owned sets in ascending set
   order: O(n_colours + owned sets) instead of O(sets). *)
let digest_colours t ~page_bits ~colours ~seed =
  let g = t.geometry in
  let n = n_colours g ~page_bits in
  let owned = Array.make n false in
  List.iter (fun c -> if c < n then owned.(c) <- true) colours;
  let run = max 1 (g.sets / n) in
  let acc = ref seed in
  for c = 0 to min n g.sets - 1 do
    if owned.(c) then
      for set = c * run to ((c + 1) * run) - 1 do
        acc := Rng.chain !acc (digest_set t set)
      done
  done;
  !acc

(* From-scratch re-folds, bypassing every cache: the ground truth
   Resource.audit and the differential tests compare the memoised
   digests against.  Same arithmetic by construction — both paths go
   through [compute_set_digest] / Rng.chain. *)
let digest_set_fold t set =
  compute_set_digest ~ways:t.geometry.ways ~tags:t.tags ~meta:t.meta set

let digest_fold t =
  let acc = ref 1L in
  for set = 0 to t.geometry.sets - 1 do
    acc := Rng.chain !acc (digest_set_fold t set)
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "%s: %d sets x %d ways x %dB (%d valid, %d dirty)"
    t.cache_name t.geometry.sets t.geometry.ways (line_size t.geometry)
    (valid_count t) (dirty_count t)
