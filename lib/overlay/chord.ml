(* Ring positions are unsigned 64-bit integers; all interval tests use
   unsigned comparison and wrap around zero. *)

let ucmp = Int64.unsigned_compare

(* x in (a, b] on the ring. *)
let in_oc ~a ~b x =
  if ucmp a b < 0 then ucmp a x < 0 && ucmp x b <= 0
  else ucmp a x < 0 || ucmp x b <= 0

(* x in (a, b) on the ring. *)
let in_oo ~a ~b x =
  if ucmp a b < 0 then ucmp a x < 0 && ucmp x b < 0
  else ucmp a x < 0 || ucmp x b < 0

let finger_bits = 64

type node = {
  id : Node_id.t;
  pos : int64;
  mutable fingers : Node_id.t array; (* deduplicated, self excluded *)
  mutable pred : Node_id.t;
  mutable alive : bool;
}

module Pos_map = Map.Make (struct
  type t = int64

  let compare = ucmp
end)

type t = {
  nodes : node Node_id.Table.t;
  mutable ring : Node_id.t Pos_map.t; (* alive nodes by position *)
  mutable alive_count : int; (* [Pos_map.cardinal ring], which is O(n) *)
  mutable next_id : int;
  mutable generation : int; (* bumped on every membership change *)
  mutable ids_gen : int;
  mutable ids_cache : Node_id.t list;
}

type change = {
  subject : Node_id.t;
  peer : Node_id.t option;
  affected : Node_id.t list;
}

let get t id =
  match Node_id.Table.find_opt t.nodes id with
  | Some node when node.alive -> node
  | Some _ | None -> raise Not_found

let size t = t.alive_count

let generation t = t.generation

(* Sorting the whole membership on every call is wasted work between
   membership changes; cache on the generation counter. *)
let node_ids t =
  if t.ids_gen = t.generation then t.ids_cache
  else begin
    let ids =
      List.sort Node_id.compare (List.map snd (Pos_map.bindings t.ring))
    in
    t.ids_gen <- t.generation;
    t.ids_cache <- ids;
    ids
  end

let is_alive t id =
  match Node_id.Table.find_opt t.nodes id with
  | Some node -> node.alive
  | None -> false

let position t id = (get t id).pos

(* Successor of a ring position: least node position >= p, wrapping. *)
let successor_of_pos t p =
  match Pos_map.find_first_opt (fun q -> ucmp q p >= 0) t.ring with
  | Some (_, id) -> id
  | None -> snd (Pos_map.min_binding t.ring)

let successor t id =
  let node = get t id in
  successor_of_pos t (Int64.add node.pos 1L)

let predecessor t id = (get t id).pred

let key_pos key = Cup_prng.Splitmix.mix (Int64.of_int (Key.to_int key))

let owner_of_key t key = successor_of_pos t (key_pos key)

(* Rebuild one node's fingers and predecessor from the ring. *)
let rebuild_node t node =
  let fingers = ref Node_id.Set.empty in
  for i = 0 to finger_bits - 1 do
    let target = Int64.add node.pos (Int64.shift_left 1L i) in
    let f = successor_of_pos t target in
    if not (Node_id.equal f node.id) then fingers := Node_id.Set.add f !fingers
  done;
  node.fingers <- Array.of_list (Node_id.Set.elements !fingers);
  let pred =
    match Pos_map.find_last_opt (fun q -> ucmp q node.pos < 0) t.ring with
    | Some (_, id) -> id
    | None -> snd (Pos_map.max_binding t.ring)
  in
  node.pred <- pred

let iter_alive t f =
  Pos_map.iter (fun _ id -> f (get t id)) t.ring

let rebuild_all t = iter_alive t (fun node -> rebuild_node t node)

(* Symmetric neighbor relation: fingers + predecessor + reverse
   fingers.  Recomputed on demand; the ring mutates rarely compared to
   how often the protocol routes. *)
let neighbors t id =
  let node = get t id in
  let out =
    Node_id.Set.add node.pred
      (Node_id.Set.of_list (Array.to_list node.fingers))
  in
  let inbound = ref Node_id.Set.empty in
  iter_alive t (fun other ->
      if not (Node_id.equal other.id id) then
        if
          Array.exists (fun f -> Node_id.equal f id) other.fingers
          || Node_id.equal other.pred id
        then inbound := Node_id.Set.add other.id !inbound);
  Node_id.Set.elements
    (Node_id.Set.remove id (Node_id.Set.union out !inbound))

let owns t node key =
  let kp = key_pos key in
  if t.alive_count = 1 then true
  else
    let pred_pos = (get t node.pred).pos in
    in_oc ~a:pred_pos ~b:node.pos kp

let next_hop t id key =
  match Node_id.Table.find_opt t.nodes id with
  | None -> Route.Stuck Route.Dead_node
  | Some node when not node.alive -> Route.Stuck Route.Dead_node
  | Some node ->
      if owns t node key then Route.Owner
      else begin
        let kp = key_pos key in
        (* closest preceding finger: the finger whose position lies
           furthest along (node.pos, kp) *)
        let best =
          Array.fold_left
            (fun acc fid ->
              let fpos = (get t fid).pos in
              if in_oo ~a:node.pos ~b:kp fpos then
                match acc with
                | Some (_, bpos) when in_oo ~a:bpos ~b:kp fpos ->
                    Some (fid, fpos)
                | Some _ -> acc
                | None -> Some (fid, fpos)
              else acc)
            None node.fingers
        in
        match best with
        | Some (fid, _) -> Route.Forward fid
        | None -> Route.Forward (successor t id)
      end

let route t ~from key =
  Route.walk ~limit:((2 * finger_bits) + size t)
    ~next_hop:(fun current -> next_hop t current key)
    from

let neighbor_snapshot t =
  List.map (fun id -> (id, neighbors t id)) (node_ids t)

let diff_affected before after =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (id, ns) -> Hashtbl.replace tbl id ns) before;
  List.filter_map
    (fun (id, ns) ->
      match Hashtbl.find_opt tbl id with
      | Some old when old = ns -> None
      | Some _ | None -> Some id)
    after

let fresh_node t pos =
  let id = Node_id.of_int t.next_id in
  t.next_id <- t.next_id + 1;
  let node = { id; pos; fingers = [||]; pred = id; alive = true } in
  Node_id.Table.replace t.nodes id node;
  t.ring <- Pos_map.add pos id t.ring;
  t.alive_count <- t.alive_count + 1;
  t.generation <- t.generation + 1;
  node

let join_at t pos =
  if Pos_map.mem pos t.ring then invalid_arg "Chord: position collision";
  let before = neighbor_snapshot t in
  let peer =
    if Pos_map.is_empty t.ring then None else Some (successor_of_pos t pos)
  in
  let node = fresh_node t pos in
  rebuild_all t;
  let affected =
    List.filter
      (fun id -> not (Node_id.equal id node.id))
      (diff_affected before (neighbor_snapshot t))
  in
  { subject = node.id; peer; affected }

let join_random t ~rng =
  let rec fresh_pos () =
    let pos = Cup_prng.Rng.int64 rng in
    if Pos_map.mem pos t.ring then fresh_pos () else pos
  in
  join_at t (fresh_pos ())

let leave t id =
  let node =
    try get t id
    with Not_found -> invalid_arg "Chord.leave: unknown or dead node"
  in
  if size t = 1 then invalid_arg "Chord.leave: cannot remove last node";
  let before = neighbor_snapshot t in
  node.alive <- false;
  t.ring <- Pos_map.remove node.pos t.ring;
  t.alive_count <- t.alive_count - 1;
  t.generation <- t.generation + 1;
  let taker = successor_of_pos t node.pos in
  rebuild_all t;
  let affected = diff_affected before (neighbor_snapshot t) in
  let affected = List.filter (fun a -> not (Node_id.equal a id)) affected in
  { subject = id; peer = Some taker; affected }

let create ?rng ~n () =
  if n < 1 then invalid_arg "Chord.create: n must be >= 1";
  let t =
    {
      nodes = Node_id.Table.create (2 * n);
      ring = Pos_map.empty;
      alive_count = 0;
      next_id = 0;
      generation = 0;
      ids_gen = -1;
      ids_cache = [];
    }
  in
  (match rng with
  | Some rng ->
      for _ = 1 to n do
        let rec fresh_pos () =
          let pos = Cup_prng.Rng.int64 rng in
          if Pos_map.mem pos t.ring then fresh_pos () else pos
        in
        ignore (fresh_node t (fresh_pos ()))
      done
  | None ->
      (* Evenly spaced: position i * floor(2^64 / n) via unsigned
         arithmetic. *)
      let step = Int64.unsigned_div (-1L) (Int64.of_int n) in
      for i = 0 to n - 1 do
        ignore (fresh_node t (Int64.mul step (Int64.of_int i)))
      done);
  rebuild_all t;
  t

let check_invariants t =
  let ( let* ) = Result.bind in
  let* () =
    if Pos_map.cardinal t.ring >= 1 then Ok () else Error "empty ring"
  in
  let* () =
    if t.alive_count = Pos_map.cardinal t.ring then Ok ()
    else Error "alive count does not match ring"
  in
  let ids = node_ids t in
  let check_node acc id =
    let* () = acc in
    let node = get t id in
    (* predecessor: the last alive node strictly before us *)
    let expected_pred =
      match Pos_map.find_last_opt (fun q -> ucmp q node.pos < 0) t.ring with
      | Some (_, p) -> p
      | None -> snd (Pos_map.max_binding t.ring)
    in
    let* () =
      if Node_id.equal node.pred expected_pred then Ok ()
      else Error (Format.asprintf "%a: wrong predecessor" Node_id.pp id)
    in
    (* fingers: each 2^i target's successor is either self (excluded)
       or present in the table *)
    let ok = ref true in
    for i = 0 to finger_bits - 1 do
      let target = Int64.add node.pos (Int64.shift_left 1L i) in
      let f = successor_of_pos t target in
      if
        (not (Node_id.equal f id))
        && not (Array.exists (Node_id.equal f) node.fingers)
      then ok := false
    done;
    if !ok then Ok ()
    else Error (Format.asprintf "%a: stale finger table" Node_id.pp id)
  in
  let* () = List.fold_left check_node (Ok ()) ids in
  (* every key position has exactly one owner by construction of
     successor_of_pos; sanity-check routing from a few nodes *)
  Ok ()
