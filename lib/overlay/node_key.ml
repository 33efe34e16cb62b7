type t = int

(* The node sits above bit 31 and the key below it.  Both fit well
   below 31 bits, so the pair fills at most 61 of an int's 63. *)
let pack node key = (Node_id.to_int node lsl 31) lor Key.to_int key
let node t = Node_id.of_int (t lsr 31)
let key t = Key.of_int (t land 0x7FFF_FFFF)

(* Multiply by an odd 62-bit constant, then fold the high product bits
   down: a table indexes by the low bits, and the multiply alone leaves
   those depending on the key only. *)
let hash t =
  let h = t * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = Int.equal
  let hash = hash
end)
