(* The 64-bit state lives unboxed in an 8-byte buffer: a mutable [int64]
   field would box a fresh value on every draw.  [mix64] and [next64] are
   inlined into their callers so their [int64] results are not boxed
   either: a draw through [next] or [int] allocates nothing. *)
type t = { state : Bytes.t }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = { state = Bytes.create 8 } in
  Bytes.set_int64_ne t.state 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let copy t = { state = Bytes.copy t.state }

let[@inline] next64 t =
  let s = Int64.add (Bytes.get_int64_ne t.state 0) golden_gamma in
  Bytes.set_int64_ne t.state 0 s;
  mix64 s

let split t =
  (* Two draws: one seeds the child, the second perturbs its gamma position. *)
  let s = next64 t in
  let g = next64 t in
  of_state (Int64.add (mix64 s) g)

(* Mask to OCaml's non-negative int range (62 value bits). *)
let next t = Int64.to_int (next64 t) land max_int

(* Rejection sampling to avoid modulo bias. *)
let rec int_below t bound =
  let r = next t in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then int_below t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_below t bound

let float t = Int64.to_float (Int64.shift_right_logical (next64 t) 11) *. 0x1.0p-53

let bool t = Int64.logand (next64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
