type t = { mutable s : int64 }

let golden = 0x9E3779B97F4A7C15L

(* The mixing and chain steps below are [@inline]: a digest chain or a
   latency jitter then runs as straight-line unboxed arithmetic instead
   of boxing an [int64] result at every call boundary.  Inlining changes
   where the code is compiled, not the arithmetic, so every value is
   the same. *)
let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed = { s = mix (Int64.of_int seed) }

let copy t = { s = t.s }

let next t =
  t.s <- Int64.add t.s golden;
  mix t.s

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let bool t = Int64.logand (next t) 1L = 1L

let split t = { s = mix (next t) }

let[@inline] hash64 x = mix (Int64.add x golden)

let[@inline] combine a b = hash64 (Int64.logxor (hash64 a) (Int64.add b golden))

(* The one routing point for state-digest chains: every digest in lib/hw
   — whether maintained incrementally or re-folded from scratch — must
   extend its accumulator through [chain]/[chain_int], so the two paths
   are the same arithmetic by construction and cannot drift. *)
let[@inline] chain acc d = combine acc d

let[@inline] chain_int acc bits = combine acc (Int64.of_int bits)

let[@inline] hash_int seed digest =
  Int64.to_int (Int64.shift_right_logical (combine seed digest) 2)
