type t = { gen : Splitmix.t } [@@unboxed]

let create ~seed = { gen = Splitmix.create (Int64.of_int seed) }

(* FNV-1a over the name, folded into the stream seed.  Cheap, stable,
   and good enough to decorrelate named substreams once passed through
   the SplitMix finalizer. *)
let hash_name name =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    name;
  !h

let substream t name =
  let base = Splitmix.next_int64 (Splitmix.copy t.gen) in
  { gen = Splitmix.create (Splitmix.mix (Int64.logxor base (hash_name name))) }

let split t = { gen = Splitmix.split t.gen }

let[@inline] float t = Splitmix.next_float t.gen

let float_range t lo hi =
  if not (lo < hi) then invalid_arg "Rng.float_range: lo must be < hi";
  lo +. ((hi -. lo) *. float t)

let int t bound = Splitmix.next_int t.gen bound

let int64 t = Splitmix.next_int64 t.gen

let bool t = Int64.logand (int64 t) 1L = 1L

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Partial Fisher–Yates over an index array: O(n) setup, O(k) draws. *)
  let idx = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.sub idx 0 k
