type t = { n : int }

let create ~n =
  if n <= 0 then invalid_arg "Ring.create: n must be positive";
  { n }

let size t = t.n

let owner t key =
  if key < 0 then invalid_arg "Ring.owner: negative key";
  let h = Cup_prng.Splitmix.mix (Int64.of_int key) in
  Int64.to_int h land max_int mod t.n

(* Largest power of two <= d, for d >= 1: fill every bit below the top
   set bit, then shift the resulting all-ones mask back into a single
   bit. *)
let top_power_of_two d =
  let d = d lor (d lsr 1) in
  let d = d lor (d lsr 2) in
  let d = d lor (d lsr 4) in
  let d = d lor (d lsr 8) in
  let d = d lor (d lsr 16) in
  let d = d lor (d lsr 32) in
  d - (d lsr 1)

let next_hop t ~node ~target =
  if node < 0 || node >= t.n || target < 0 || target >= t.n then
    invalid_arg "Ring.next_hop: id out of range";
  if node = target then None
  else
    let d = (target - node + t.n) mod t.n in
    Some ((node + top_power_of_two d) mod t.n)
