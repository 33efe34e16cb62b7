(* The 64-bit state sits unboxed in 8 bytes, so a step reads, adds and
   writes a machine word and allocates nothing; an [int64] record field
   would box on every step. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let copy = Bytes.copy

(* The SplitMix64 output function: advance by the golden gamma, then
   apply the murmur-style finalizer to the new state. *)
let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next_int64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

let[@inline] next_float t =
  (* 53 high bits -> [0,1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. 0x1p-53

(* Rejection sampling on the top bits to avoid modulo bias. *)
let rec draw_below t bound =
  let bound64 = Int64.of_int bound in
  let bits = Int64.shift_right_logical (next_int64 t) 1 in
  let value = Int64.rem bits bound64 in
  if Int64.(sub (add bits (sub bound64 1L)) value) < 0L then draw_below t bound
  else Int64.to_int value

let next_int t bound =
  if bound <= 0 then invalid_arg "Splitmix.next_int: bound must be positive";
  draw_below t bound

let split t =
  let seed = next_int64 t in
  (* Mixing with a distinct constant decorrelates the child stream. *)
  create (mix (Int64.logxor seed 0x5851F42D4C957F2DL))
