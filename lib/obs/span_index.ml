(* Linear probing over one flat int array.  Slot [s] keeps its id at
   [s * stride] and its fields right after it, so a lookup and the
   fields it reads share a cache line.  Nothing is ever removed, so
   there are no tombstones, and the table doubles at 3/4 load. *)

type t = {
  stride : int; (* 1 + fields *)
  mutable bits : int; (* log2 of the slot count *)
  mutable live : int;
  mutable data : int array;
}

let initial_bits = 10

let create ~fields =
  if fields < 0 then invalid_arg "Span_index.create: negative field count";
  let stride = fields + 1 in
  {
    stride;
    bits = initial_bits;
    live = 0;
    data = Array.make (stride lsl initial_bits) 0;
  }

let length t = t.live

(* Low bits of the id, plus the top bits of its high part times an odd
   constant.  Below the capacity the high part is 0, so the home slot
   is the id itself. *)
let home t id =
  let high = id lsr t.bits in
  (id + ((high * 0x2545F4914F6CDD1D) lsr (63 - t.bits)))
  land ((1 lsl t.bits) - 1)

(* The slot holding [id], or the empty slot where it would go.  The
   table is never full, so the probe ends.  A top-level loop, not a
   closure: lookups allocate nothing. *)
let rec probe data stride mask id s =
  let k = Array.unsafe_get data (s * stride) in
  if k = id || k = 0 then s else probe data stride mask id ((s + 1) land mask)

let slot t id = probe t.data t.stride ((1 lsl t.bits) - 1) id (home t id)

let find t id =
  if id = 0 then -1
  else
    let s = slot t id in
    if Array.unsafe_get t.data (s * t.stride) = id then s else -1

let grow t =
  let old = t.data and stride = t.stride in
  t.bits <- t.bits + 1;
  t.data <- Array.make (stride lsl t.bits) 0;
  for s = 0 to (Array.length old / stride) - 1 do
    let id = old.(s * stride) in
    if id <> 0 then
      Array.blit old (s * stride) t.data (slot t id * stride) stride
  done

let add t id =
  if id = 0 then invalid_arg "Span_index.add: 0 marks an empty slot";
  let s = slot t id in
  if Array.unsafe_get t.data (s * t.stride) = id then s
  else begin
    let s =
      if 4 * (t.live + 1) > 3 lsl t.bits then begin
        grow t;
        slot t id
      end
      else s
    in
    t.data.(s * t.stride) <- id;
    t.live <- t.live + 1;
    s
  end

let get t s i = t.data.((s * t.stride) + 1 + i)
let set t s i v = t.data.((s * t.stride) + 1 + i) <- v

let max_probe t =
  let mask = (1 lsl t.bits) - 1 and worst = ref 0 in
  for s = 0 to mask do
    let id = t.data.(s * t.stride) in
    if id <> 0 then worst := max !worst (((s - home t id) land mask) + 1)
  done;
  !worst
