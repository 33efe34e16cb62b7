let ucmp = Int64.unsigned_compare

(* Circular numeric distance between two identifiers. *)
let udist a b =
  let d1 = Int64.sub a b and d2 = Int64.sub b a in
  if ucmp d1 d2 <= 0 then d1 else d2

let digits = 16 (* sixteen hex digits of a 64-bit identifier *)

let digit id i = Int64.to_int (Int64.logand (Int64.shift_right_logical id (60 - (4 * i))) 0xFL)

(* Number of equal leading hex digits. *)
let shared_prefix a b =
  let x = Int64.logxor a b in
  if x = 0L then digits
  else
    (* leading zero bits of x, in whole hex digits *)
    let rec count i = if i < digits && digit x i = 0 then count (i + 1) else i in
    count 0

type node = {
  id : Node_id.t;
  ident : int64;
  mutable table : Node_id.t array; (* deduplicated routing-table entries *)
  mutable leaves : Node_id.t array; (* leaf set, both sides *)
  mutable alive : bool;
}

module Pos_map = Map.Make (struct
  type t = int64

  let compare = ucmp
end)

type t = {
  nodes : node Node_id.Table.t;
  mutable ring : Node_id.t Pos_map.t;
  mutable alive_count : int; (* [Pos_map.cardinal ring], which is O(n) *)
  leaf_radius : int;
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

(* Cached on the generation counter: membership changes rarely
   relative to how often callers re-request the sorted listing. *)
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

let ident t id = (get t id).ident

let key_ident key = Cup_prng.Splitmix.mix (Int64.of_int (Key.to_int key))

(* The alive node numerically closest to an identifier (ring metric);
   lower id breaks ties deterministically. *)
let closest_to t target =
  let after =
    match Pos_map.find_first_opt (fun q -> ucmp q target >= 0) t.ring with
    | Some binding -> Some binding
    | None -> Pos_map.min_binding_opt t.ring
  in
  let before =
    match Pos_map.find_last_opt (fun q -> ucmp q target < 0) t.ring with
    | Some binding -> Some binding
    | None -> Pos_map.max_binding_opt t.ring
  in
  match (after, before) with
  | Some (pa, na), Some (pb, nb) ->
      let da = udist pa target and db = udist pb target in
      let c = ucmp da db in
      if c < 0 then na
      else if c > 0 then nb
      else if Node_id.compare na nb <= 0 then na
      else nb
  | Some (_, n), None | None, Some (_, n) -> n
  | None, None -> failwith "Pastry.closest_to: empty overlay"

let owner_of_key t key = closest_to t (key_ident key)

let owns t id key = is_alive t id && Node_id.equal (owner_of_key t key) id

(* Rebuild one node's routing table and leaf set from the ring. *)
let rebuild_node t node =
  (* routing table: for each (row, column) the numerically closest
     alive node sharing exactly [row] digits with us and having digit
     [column] at position [row] *)
  let best = Array.make (digits * 16) None in
  Pos_map.iter
    (fun _ oid ->
      if not (Node_id.equal oid node.id) then begin
        let other = get t oid in
        let row = shared_prefix node.ident other.ident in
        if row < digits then begin
          let col = digit other.ident row in
          let slot = (row * 16) + col in
          match best.(slot) with
          | Some (cur, _)
            when ucmp (udist cur node.ident) (udist other.ident node.ident) <= 0
            ->
              ()
          | Some _ | None -> best.(slot) <- Some (other.ident, oid)
        end
      end)
    t.ring;
  let entries = ref Node_id.Set.empty in
  Array.iter
    (function
      | Some (_, oid) -> entries := Node_id.Set.add oid !entries
      | None -> ())
    best;
  node.table <- Array.of_list (Node_id.Set.elements !entries);
  (* leaf set: the l ring-nearest nodes on each side *)
  let ring = Array.of_list (List.map snd (Pos_map.bindings t.ring)) in
  let n = Array.length ring in
  let idx = ref 0 in
  Array.iteri (fun i oid -> if Node_id.equal oid node.id then idx := i) ring;
  let leaves = ref Node_id.Set.empty in
  for d = 1 to Stdlib.min t.leaf_radius ((n - 1) / 2 + 1) do
    leaves := Node_id.Set.add ring.((!idx + d) mod n) !leaves;
    leaves := Node_id.Set.add ring.((!idx - d + (2 * n)) mod n) !leaves
  done;
  node.leaves <-
    Array.of_list (Node_id.Set.elements (Node_id.Set.remove node.id !leaves))

let rebuild_all t = Pos_map.iter (fun _ id -> rebuild_node t (get t id)) t.ring

let known_peers node =
  Node_id.Set.union
    (Node_id.Set.of_list (Array.to_list node.table))
    (Node_id.Set.of_list (Array.to_list node.leaves))

let neighbors t id =
  let node = get t id in
  let out = known_peers node in
  let inbound = ref Node_id.Set.empty in
  Pos_map.iter
    (fun _ oid ->
      if not (Node_id.equal oid id) then begin
        let other = get t oid in
        if Node_id.Set.mem id (known_peers other) then
          inbound := Node_id.Set.add oid !inbound
      end)
    t.ring;
  Node_id.Set.elements (Node_id.Set.remove id (Node_id.Set.union out !inbound))

let next_hop t id key =
  match Node_id.Table.find_opt t.nodes id with
  | None -> Route.Stuck Route.Dead_node
  | Some node when not node.alive -> Route.Stuck Route.Dead_node
  | Some node ->
  let target = key_ident key in
  let owner = closest_to t target in
  if Node_id.equal owner id then Route.Owner
  else begin
    let peers = known_peers node in
    if Node_id.Set.mem owner peers then
      (* leaf-set endgame (and any-table shortcut): deliver straight
         to the numerically closest node *)
      Route.Forward owner
    else begin
      let my_prefix = shared_prefix node.ident target in
      let my_dist = udist node.ident target in
      (* Pastry rule: prefer a strictly longer prefix match; otherwise
         any known node at least as good in prefix and strictly closer
         numerically. *)
      let best = ref None in
      Node_id.Set.iter
        (fun oid ->
          let other = get t oid in
          let p = shared_prefix other.ident target in
          let d = udist other.ident target in
          let better_than_me =
            p > my_prefix || (p >= my_prefix && ucmp d my_dist < 0)
          in
          if better_than_me then
            match !best with
            | Some (bp, bd, _) when bp > p || (bp = p && ucmp bd d <= 0) -> ()
            | Some _ | None -> best := Some (p, d, oid))
        peers;
      match !best with
      | Some (_, _, oid) -> Route.Forward oid
      | None ->
          (* last resort: step along the ring toward the target; the
             leaf set always contains both ring neighbors, and ring
             distance to the owner strictly shrinks *)
          let toward = ref None in
          Node_id.Set.iter
            (fun oid ->
              let d = udist (get t oid).ident target in
              if ucmp d my_dist < 0 then
                match !toward with
                | Some (bd, _) when ucmp bd d <= 0 -> ()
                | Some _ | None -> toward := Some (d, oid))
            peers;
          (match !toward with
          | Some (_, oid) -> Route.Forward oid
          | None -> Route.Stuck Route.No_progress)
    end
  end

let route t ~from key =
  Route.walk ~limit:(digits + size t)
    ~next_hop:(fun current -> next_hop t current key)
    from

let neighbor_snapshot t = List.map (fun id -> (id, neighbors t id)) (node_ids t)

let diff_affected before after =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (id, ns) -> Hashtbl.replace tbl id ns) before;
  List.filter_map
    (fun (id, ns) ->
      match Hashtbl.find_opt tbl id with
      | Some old when old = ns -> None
      | Some _ | None -> Some id)
    after

let fresh_node t ident =
  let id = Node_id.of_int t.next_id in
  t.next_id <- t.next_id + 1;
  let node = { id; ident; table = [||]; leaves = [||]; alive = true } in
  Node_id.Table.replace t.nodes id node;
  t.ring <- Pos_map.add ident id t.ring;
  t.alive_count <- t.alive_count + 1;
  t.generation <- t.generation + 1;
  node

let join_at t ident =
  if Pos_map.mem ident t.ring then invalid_arg "Pastry: identifier collision";
  let before = neighbor_snapshot t in
  let peer = if Pos_map.is_empty t.ring then None else Some (closest_to t ident) in
  let node = fresh_node t ident in
  rebuild_all t;
  let affected =
    List.filter
      (fun id -> not (Node_id.equal id node.id))
      (diff_affected before (neighbor_snapshot t))
  in
  { subject = node.id; peer; affected }

let join_random t ~rng =
  let rec fresh () =
    let ident = Cup_prng.Rng.int64 rng in
    if Pos_map.mem ident t.ring then fresh () else ident
  in
  join_at t (fresh ())

let leave t id =
  let node =
    try get t id
    with Not_found -> invalid_arg "Pastry.leave: unknown or dead node"
  in
  if size t = 1 then invalid_arg "Pastry.leave: cannot remove last node";
  let before = neighbor_snapshot t in
  node.alive <- false;
  t.ring <- Pos_map.remove node.ident t.ring;
  t.alive_count <- t.alive_count - 1;
  t.generation <- t.generation + 1;
  let taker = closest_to t node.ident in
  rebuild_all t;
  let affected =
    List.filter
      (fun a -> not (Node_id.equal a id))
      (diff_affected before (neighbor_snapshot t))
  in
  { subject = id; peer = Some taker; affected }

let create ?rng ?(leaf_radius = 4) ~n () =
  if n < 1 then invalid_arg "Pastry.create: n must be >= 1";
  if leaf_radius < 1 then invalid_arg "Pastry.create: leaf_radius must be >= 1";
  let t =
    {
      nodes = Node_id.Table.create (2 * n);
      ring = Pos_map.empty;
      alive_count = 0;
      leaf_radius;
      next_id = 0;
      generation = 0;
      ids_gen = -1;
      ids_cache = [];
    }
  in
  (match rng with
  | Some rng ->
      for _ = 1 to n do
        let rec fresh () =
          let ident = Cup_prng.Rng.int64 rng in
          if Pos_map.mem ident t.ring then fresh () else ident
        in
        ignore (fresh_node t (fresh ()))
      done
  | None ->
      let step = Int64.unsigned_div (-1L) (Int64.of_int n) in
      for i = 0 to n - 1 do
        ignore (fresh_node t (Int64.mul step (Int64.of_int i)))
      done);
  rebuild_all t;
  t

let check_invariants t =
  let ( let* ) = Result.bind in
  let* () = if size t >= 1 then Ok () else Error "empty overlay" in
  let* () =
    if t.alive_count = Pos_map.cardinal t.ring then Ok ()
    else Error "alive count does not match ring"
  in
  let ids = node_ids t in
  List.fold_left
    (fun acc id ->
      let* () = acc in
      let node = get t id in
      (* the leaf set is exactly the l ring neighbors on each side *)
      let ring = Array.of_list (List.map snd (Pos_map.bindings t.ring)) in
      let n = Array.length ring in
      let idx = ref 0 in
      Array.iteri (fun i oid -> if Node_id.equal oid id then idx := i) ring;
      let expected = ref Node_id.Set.empty in
      for d = 1 to Stdlib.min t.leaf_radius ((n - 1) / 2 + 1) do
        expected := Node_id.Set.add ring.((!idx + d) mod n) !expected;
        expected := Node_id.Set.add ring.((!idx - d + (2 * n)) mod n) !expected
      done;
      let expected = Node_id.Set.remove id !expected in
      let leaves = Node_id.Set.of_list (Array.to_list node.leaves) in
      if not (Node_id.Set.equal leaves expected) then
        Error (Format.asprintf "%a: leaf set out of sync" Node_id.pp id)
      else
        (* routing from this node reaches the owner of a probe key *)
        let key = Key.of_int (Node_id.to_int id * 7) in
        let owner = owner_of_key t key in
        match route t ~from:id key with
        | Route.Unreachable { reason; _ } ->
            Error
              (Format.asprintf "%a: route unreachable (%a)" Node_id.pp id
                 Route.pp_reason reason)
        | Route.Delivered { hops; _ } -> (
            match List.rev hops with
            | [] when Node_id.equal id owner -> Ok ()
            | last :: _ when Node_id.equal last owner -> Ok ()
            | _ -> Error (Format.asprintf "%a: route misses owner" Node_id.pp id)))
    (Ok ()) ids
