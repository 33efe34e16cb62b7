module Node_id = Cup_overlay.Node_id

type t = Node_id.t array

let empty = [||]
let is_empty t = Array.length t = 0
let cardinal = Array.length
let to_list = Array.to_list

(* The index of the first member not below [id]. *)
let rec lower_bound (t : t) (id : Node_id.t) i =
  if i < Array.length t && (t.(i) :> int) < (id :> int) then
    lower_bound t id (i + 1)
  else i

let holds (t : t) i (id : Node_id.t) =
  i < Array.length t && (t.(i) :> int) = (id :> int)

let mem t id = holds t (lower_bound t id 0) id

let add t id =
  let i = lower_bound t id 0 in
  if holds t i id then t
  else begin
    let n = Array.length t in
    let a = Array.make (n + 1) id in
    Array.blit t 0 a 0 i;
    Array.blit t i a (i + 1) (n - i);
    a
  end

let remove t id =
  let i = lower_bound t id 0 in
  let n = Array.length t in
  if not (holds t i id) then t
  else if n = 1 then empty
  else begin
    let a = Array.make (n - 1) id in
    Array.blit t 0 a 0 i;
    Array.blit t (i + 1) a i (n - i - 1);
    a
  end

let remap t ~old_id ~new_id =
  if mem t old_id then add (remove t old_id) new_id else t

let filter keep t =
  if Array.for_all keep t then t
  else
    match List.filter keep (Array.to_list t) with
    | [] -> empty
    | kept -> Array.of_list kept
