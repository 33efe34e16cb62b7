type t = int

(* The node sits above bit 31 and the key below it.  Both fit well
   below 31 bits, so the pair fills at most 61 of an int's 63. *)
let pack node key = (Node_id.to_int node lsl 31) lor Key.to_int key
let node t = Node_id.of_int (t lsr 31)
let key t = Key.of_int (t land 0x7FFF_FFFF)

(* Multiply by an odd 62-bit constant, then fold the high product bits
   down: a table indexes by the low bits, and the multiply alone leaves
   bits 0-30 depending on the key only.  Folding from bit 32 mixes node
   bits into every low bit; a fold from bit 29 left bits 0 and 1 a
   function of the key, so one key's pairs filled a quarter of the
   slots. *)
let hash t =
  let h = t * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

module Index = struct
  (* Packed pairs are non-negative, so two negative keys mark the slots
     that hold none: [empty] ends a probe sequence, [tomb] (a removed
     pair) does not. *)
  let empty = -1
  let tomb = -2

  type 'a t = {
    absent : 'a;
    mutable keys : int array;
    mutable values : 'a array; (* [absent] wherever [keys] holds no pair *)
    mutable live : int;
    mutable used : int; (* [live] plus tombstones *)
  }

  let create ~absent n =
    let cap = ref 8 in
    while !cap < 2 * n do
      cap := 2 * !cap
    done;
    {
      absent;
      keys = Array.make !cap empty;
      values = Array.make !cap absent;
      live = 0;
      used = 0;
    }

  let length t = t.live

  (* The probe loops are top-level functions of their arguments, not
     closures, so a lookup allocates nothing. *)

  (* The slot holding [k], or -1. *)
  let rec probe keys mask k i =
    let s = Array.unsafe_get keys i in
    if s = k then i
    else if s = empty then -1
    else probe keys mask k ((i + 1) land mask)

  (* The slot holding [k]; else the first tombstone on [k]'s probe
     sequence, or the empty slot that ends it. *)
  let rec probe_insert keys mask k i first_tomb =
    let s = Array.unsafe_get keys i in
    if s = k then i
    else if s = empty then if first_tomb >= 0 then first_tomb else i
    else
      probe_insert keys mask k
        ((i + 1) land mask)
        (if s = tomb && first_tomb < 0 then i else first_tomb)

  let rec free_slot keys mask i =
    if Array.unsafe_get keys i = empty then i
    else free_slot keys mask ((i + 1) land mask)

  let slot t k =
    let mask = Array.length t.keys - 1 in
    probe t.keys mask k (hash k land mask)

  let find t k =
    let i = slot t k in
    if i < 0 then t.absent else Array.unsafe_get t.values i

  (* Rebuild without tombstones, doubling when live pairs would fill
     more than a quarter of the slots, so at least a quarter of the
     slots fill up before the next rebuild. *)
  let rebuild t =
    let old_keys = t.keys and old_values = t.values in
    let old_cap = Array.length old_keys in
    let cap = if 4 * (t.live + 1) > old_cap then 2 * old_cap else old_cap in
    let keys = Array.make cap empty and values = Array.make cap t.absent in
    let mask = cap - 1 in
    for j = 0 to old_cap - 1 do
      let k = old_keys.(j) in
      if k >= 0 then begin
        let i = free_slot keys mask (hash k land mask) in
        keys.(i) <- k;
        values.(i) <- old_values.(j)
      end
    done;
    t.keys <- keys;
    t.values <- values;
    t.used <- t.live

  let rec replace t k v =
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let i = probe_insert keys mask k (hash k land mask) (-1) in
    let s = keys.(i) in
    if s = k then t.values.(i) <- v
    else if s = empty && 2 * (t.used + 1) > Array.length keys then begin
      rebuild t;
      replace t k v
    end
    else begin
      if s = empty then t.used <- t.used + 1;
      keys.(i) <- k;
      t.values.(i) <- v;
      t.live <- t.live + 1
    end

  let remove t k =
    let i = slot t k in
    if i >= 0 then begin
      t.keys.(i) <- tomb;
      t.values.(i) <- t.absent;
      t.live <- t.live - 1
    end

  let fold f t init =
    let keys = t.keys and values = t.values in
    let acc = ref init in
    for i = 0 to Array.length keys - 1 do
      let k = keys.(i) in
      if k >= 0 then acc := f k values.(i) !acc
    done;
    !acc

  let filter_inplace f t =
    let keys = t.keys and values = t.values in
    for i = 0 to Array.length keys - 1 do
      let k = keys.(i) in
      if k >= 0 && not (f k values.(i)) then begin
        keys.(i) <- tomb;
        values.(i) <- t.absent;
        t.live <- t.live - 1
      end
    done

  let clear t =
    Array.fill t.keys 0 (Array.length t.keys) empty;
    Array.fill t.values 0 (Array.length t.values) t.absent;
    t.live <- 0;
    t.used <- 0
end
