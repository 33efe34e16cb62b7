(* Neighbor bookkeeping: each node keeps its neighbors as a
   [Node_id]-keyed map from id to the neighbor's node record.  The map
   only ever contains alive nodes ([leave] removes the departing node
   from every neighbor's map), so the routing hot path — [next_hop]
   folds over the current node's neighbors once per hop — touches no
   hashtable and performs no per-neighbor [get].  Key order of the map
   preserves the old [Node_id.Set] iteration order, so routing
   tie-breaks and all published neighbor lists are unchanged.

   Point location: CAN's zone-split history is kept as a binary
   space-partition tree over the unit square, so finding the zone that
   holds a point is one root-to-leaf walk, not a scan of the node
   table.  Cells live in two flat arrays; cell 0 is the root.  A leaf's
   [tags] entry is the id of the node owning its zone.  An inner cell's
   entry is [lnot ((low lsl 1) lor axis)], which is negative: its
   halves are cells [low] (coordinates below the cut) and [low + 1],
   the cut runs along x when [axis = 0] and along y when [axis = 1],
   and [mids] holds the cut's coordinate — exactly {!Zone.split}'s.
   [join_at] turns the leaf holding the join point into an inner cell
   and [leave] re-points the departing node's leaves at the taker, so
   the leaves always tile the square as the alive nodes' zones do. *)

type node = {
  id : Node_id.t;
  mutable zones : Zone.t list;
  mutable leaves : int list; (* the tree cells of [zones], same order *)
  mutable neighbors : node Node_id.Map.t;
  mutable alive : bool;
}

type t = {
  nodes : node Node_id.Table.t;
  mutable alive_count : int;
  mutable next_id : int;
  mutable generation : int; (* bumped on every membership change *)
  mutable ids_gen : int; (* generation [ids_cache] was computed at *)
  mutable ids_cache : Node_id.t list;
  mutable tags : int array; (* per cell: leaf owner, or inner code *)
  mutable mids : float array; (* per inner cell: the cut coordinate *)
  mutable cells : int; (* cells in use *)
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

(* The sorted membership is re-requested constantly (reports, bench
   setup, invariant checks) but only changes on join/leave: cache it on
   the generation counter. *)
let node_ids t =
  if t.ids_gen = t.generation then t.ids_cache
  else begin
    let ids =
      Node_id.Table.fold
        (fun id node acc -> if node.alive then id :: acc else acc)
        t.nodes []
      |> List.sort Node_id.compare
    in
    t.ids_gen <- t.generation;
    t.ids_cache <- ids;
    ids
  end

let is_alive t id =
  match Node_id.Table.find_opt t.nodes id with
  | Some node -> node.alive
  | None -> false

let neighbors t id =
  List.rev
    (Node_id.Map.fold (fun nid _ acc -> nid :: acc) (get t id).neighbors [])

let neighbor_nodes node =
  List.rev (Node_id.Map.fold (fun _ n acc -> n :: acc) node.neighbors [])

let zones_of t id = (get t id).zones

let nodes_adjacent a b =
  List.exists
    (fun za -> List.exists (fun zb -> Zone.adjacent za zb) b.zones)
    a.zones

let region_distance node p =
  List.fold_left
    (fun acc z -> Float.min acc (Zone.distance_to_point z p))
    Float.infinity node.zones

let region_contains node p = List.exists (fun z -> Zone.contains z p) node.zones

(* The leaf below cell [c] whose zone holds [p]. *)
let rec leaf_below t c (p : Point.t) =
  let tag = t.tags.(c) in
  if tag >= 0 then c
  else
    let code = lnot tag in
    let coord = if code land 1 = 0 then p.x else p.y in
    let low = code lsr 1 in
    leaf_below t (if coord < t.mids.(c) then low else low + 1) p

let leaf_of_point t p =
  if not (Zone.contains Zone.unit p) then
    failwith "Topology.owner_of_point: space not covered";
  leaf_below t 0 p

let owner_of_point t p = Node_id.of_int t.tags.(leaf_of_point t p)

let owner_of_key t k = owner_of_point t (Key.to_point k)

let next_hop t id p =
  match Node_id.Table.find_opt t.nodes id with
  | None -> Route.Stuck Route.Dead_node
  | Some node when not node.alive -> Route.Stuck Route.Dead_node
  | Some node ->
      if region_contains node p then Route.Owner
      else
        let best =
          Node_id.Map.fold
            (fun nid nnode acc ->
              let d = region_distance nnode p in
              match acc with
              | Some (_, best_d) when best_d < d -> acc
              | Some (best_id, best_d)
                when best_d = d && Node_id.compare best_id nid <= 0 ->
                  acc
              | Some _ | None -> Some (nid, d))
            node.neighbors None
        in
        (match best with
        | Some (nid, _) -> Route.Forward nid
        | None -> Route.Stuck Route.No_progress)

let route t ~from p =
  Route.walk ~limit:((4 * t.alive_count) + 64)
    ~next_hop:(fun current -> next_hop t current p)
    from

(* Recompute the neighbor relation between [node] and every candidate,
   fixing both directions.  Returns candidates whose sets changed. *)
let refresh_edges node candidates =
  List.filter
    (fun cand ->
      if not cand.alive || Node_id.equal cand.id node.id then false
      else begin
        let linked = nodes_adjacent node cand in
        let had = Node_id.Map.mem cand.id node.neighbors in
        if linked && not had then begin
          node.neighbors <- Node_id.Map.add cand.id cand node.neighbors;
          cand.neighbors <- Node_id.Map.add node.id node cand.neighbors;
          true
        end
        else if (not linked) && had then begin
          node.neighbors <- Node_id.Map.remove cand.id node.neighbors;
          cand.neighbors <- Node_id.Map.remove node.id cand.neighbors;
          true
        end
        else false
      end)
    candidates

(* A new node owning [zone], whose tree leaf is [leaf]. *)
let fresh_node t zone leaf =
  let id = Node_id.of_int t.next_id in
  t.next_id <- t.next_id + 1;
  let node =
    {
      id;
      zones = [ zone ];
      leaves = [ leaf ];
      neighbors = Node_id.Map.empty;
      alive = true;
    }
  in
  Node_id.Table.replace t.nodes id node;
  t.tags.(leaf) <- (id :> int);
  t.alive_count <- t.alive_count + 1;
  t.generation <- t.generation + 1;
  node

(* Turn leaf [leaf], whose zone is [zone], into an inner cell cut as
   [Zone.split zone] cuts; returns [low], the cell of the low half
   ([low + 1] is the high half).  The caller sets both new tags. *)
let split_leaf t leaf zone =
  let low = t.cells in
  if low + 2 > Array.length t.tags then begin
    t.tags <- Array.append t.tags (Array.make (Array.length t.tags) 0);
    t.mids <- Array.append t.mids (Array.make (Array.length t.mids) 0.)
  end;
  let axis, mid = Zone.split_axis zone in
  let axis = match axis with Zone.X -> 0 | Zone.Y -> 1 in
  t.tags.(leaf) <- lnot ((low lsl 1) lor axis);
  t.mids.(leaf) <- mid;
  t.cells <- low + 2;
  low

let join_at t p =
  if t.alive_count = 0 then begin
    t.cells <- 1;
    let node = fresh_node t Zone.unit 0 in
    { subject = node.id; peer = None; affected = [] }
  end
  else begin
    let leaf = leaf_of_point t p in
    let owner = get t (Node_id.of_int t.tags.(leaf)) in
    let zone =
      match List.find_opt (fun z -> Zone.contains z p) owner.zones with
      | Some z -> z
      | None -> assert false
    in
    let low, high = Zone.split zone in
    let low_cell = split_leaf t leaf zone in
    let keep, keep_cell, give, give_cell =
      if Zone.contains low p then (high, low_cell + 1, low, low_cell)
      else (low, low_cell, high, low_cell + 1)
    in
    owner.zones <-
      keep :: List.filter (fun z -> not (Zone.equal z zone)) owner.zones;
    owner.leaves <- keep_cell :: List.filter (fun c -> c <> leaf) owner.leaves;
    t.tags.(keep_cell) <- (owner.id :> int);
    let node = fresh_node t give give_cell in
    (* Only previous neighbors of the split node (and the split node
       itself) can gain or lose an edge. *)
    let candidates = owner :: neighbor_nodes owner in
    let touched_new = refresh_edges node candidates in
    let touched_owner = refresh_edges owner candidates in
    let affected =
      List.sort_uniq Node_id.compare
        (owner.id
        :: List.map (fun n -> n.id) touched_new
        @ List.map (fun n -> n.id) touched_owner)
    in
    { subject = node.id; peer = Some owner.id; affected }
  end

let join_random t ~rng =
  let p =
    Point.make ~x:(Cup_prng.Rng.float rng) ~y:(Cup_prng.Rng.float rng)
  in
  join_at t p

let total_volume node =
  List.fold_left (fun acc z -> acc +. Zone.volume z) 0. node.zones

let leave t id =
  let node =
    try get t id
    with Not_found -> invalid_arg "Topology.leave: unknown or dead node"
  in
  if t.alive_count = 1 then invalid_arg "Topology.leave: cannot remove last node";
  let departing_neighbors = neighbor_nodes node in
  (* CAN takeover rule: the neighbor with the smallest region absorbs
     the departing zones (lowest id on ties, for determinism).  A
     single fold instead of sorting the whole neighbor list. *)
  let taker =
    match
      List.fold_left
        (fun acc n ->
          let v = total_volume n in
          match acc with
          | Some (_, best_v) when best_v < v -> acc
          | Some (best, best_v)
            when best_v = v && Node_id.compare best.id n.id <= 0 ->
              acc
          | Some _ | None -> Some (n, v))
        None departing_neighbors
    with
    | None -> assert false (* alive > 1 implies at least one neighbor *)
    | Some (taker, _) -> taker
  in
  node.alive <- false;
  t.alive_count <- t.alive_count - 1;
  t.generation <- t.generation + 1;
  (* Drop the departed node from every neighbor's map. *)
  List.iter
    (fun n -> n.neighbors <- Node_id.Map.remove id n.neighbors)
    departing_neighbors;
  taker.zones <- node.zones @ taker.zones;
  taker.leaves <- node.leaves @ taker.leaves;
  List.iter (fun c -> t.tags.(c) <- (taker.id :> int)) node.leaves;
  let candidates =
    List.filter (fun n -> not (Node_id.equal n.id taker.id)) departing_neighbors
    @ neighbor_nodes taker
  in
  let touched = refresh_edges taker candidates in
  let affected =
    List.sort_uniq Node_id.compare
      (taker.id
      :: List.map (fun n -> n.id) departing_neighbors
      @ List.map (fun n -> n.id) touched)
  in
  { subject = id; peer = Some taker.id; affected }

let create ?rng ~n ~placement () =
  if n < 1 then invalid_arg "Topology.create: n must be >= 1";
  let t =
    {
      nodes = Node_id.Table.create (2 * n);
      alive_count = 0;
      next_id = 0;
      generation = 0;
      ids_gen = -1;
      ids_cache = [];
      tags = Array.make (2 * n) 0;
      mids = Array.make (2 * n) 0.;
      cells = 0;
    }
  in
  ignore (join_at t (Point.make ~x:0.5 ~y:0.5));
  (* [`Grid] splits the largest zone, lowest owner id on ties.  That
     order is fixed: once nodes 0 .. 2^g - 1 each own one zone of
     volume 2^-g, they split in id order and node i's split creates
     node 2^g + i.  So node j joins in the high half of the one zone
     of node j - 2^g, where 2^g = [level] is the largest power of two
     <= j; that half's center lands in it after the split. *)
  let level = ref 1 in
  for j = 1 to n - 1 do
    match placement with
    | `Random -> (
        match rng with
        | Some rng -> ignore (join_random t ~rng)
        | None -> invalid_arg "Topology.create: `Random needs ~rng")
    | `Grid ->
        if j = 2 * !level then level := j;
        let victim = get t (Node_id.of_int (j - !level)) in
        let _, high = Zone.split (List.hd victim.zones) in
        ignore (join_at t (Zone.center high))
  done;
  t

let check_invariants t =
  let ( let* ) r f = Result.bind r f in
  let all =
    Node_id.Table.fold
      (fun _ node acc -> if node.alive then node :: acc else acc)
      t.nodes []
  in
  let* () =
    if List.length all = t.alive_count then Ok ()
    else Error "alive count does not match table"
  in
  let volume =
    List.fold_left (fun acc node -> acc +. total_volume node) 0. all
  in
  let* () =
    if Float.abs (volume -. 1.) < 1e-9 then Ok ()
    else Error (Printf.sprintf "zones do not tile the torus: volume %f" volume)
  in
  (* The split tree: every inner cell cuts its zone as [Zone.split]
     does, and every leaf's owner is alive and holds the leaf's zone at
     the leaf's position in its lists.  Distinct leaves match distinct
     (node, position) pairs, so equal totals make the leaves and the
     alive nodes' zones one to one. *)
  let rec held c zone leaves zones =
    match (leaves, zones) with
    | l :: ls, z :: zs -> (l = c && Zone.equal z zone) || held c zone ls zs
    | _ -> false
  in
  let rec check_cell c zone count =
    let tag = t.tags.(c) in
    if tag >= 0 then
      match Node_id.Table.find_opt t.nodes (Node_id.of_int tag) with
      | Some owner when owner.alive && held c zone owner.leaves owner.zones ->
          Ok (count + 1)
      | Some _ | None ->
          Error
            (Format.asprintf "tree leaf %d: zone %a not held by alive n%d" c
               Zone.pp zone tag)
    else
      let code = lnot tag in
      let low = code lsr 1 in
      let axis, mid = Zone.split_axis zone in
      if
        low + 1 >= t.cells
        || code land 1 <> (match axis with Zone.X -> 0 | Zone.Y -> 1)
        || t.mids.(c) <> mid
      then Error (Printf.sprintf "tree cell %d: cut differs from Zone.split" c)
      else
        let low_zone, high_zone = Zone.split zone in
        let* count = check_cell low low_zone count in
        check_cell (low + 1) high_zone count
  in
  let* tree_leaves = check_cell 0 Zone.unit 0 in
  let* () =
    let zones = List.fold_left (fun acc n -> acc + List.length n.zones) 0 all in
    let leaves = List.fold_left (fun acc n -> acc + List.length n.leaves) 0 all in
    if tree_leaves = zones && leaves = zones then Ok ()
    else
      Error
        (Printf.sprintf "tree has %d leaves; alive nodes hold %d zones, %d leaves"
           tree_leaves zones leaves)
  in
  let check_node node =
    let geometric =
      List.filter
        (fun other ->
          (not (Node_id.equal other.id node.id)) && nodes_adjacent node other)
        all
      |> List.map (fun n -> n.id)
      |> Node_id.Set.of_list
    in
    let recorded =
      Node_id.Map.fold
        (fun nid _ acc -> Node_id.Set.add nid acc)
        node.neighbors Node_id.Set.empty
    in
    if not (Node_id.Set.equal geometric recorded) then
      Error
        (Format.asprintf "node %a: neighbor set out of sync" Node_id.pp node.id)
    else if
      Node_id.Map.exists
        (fun nid nnode ->
          (not nnode.alive)
          || (not (Node_id.Map.mem node.id nnode.neighbors))
          ||
          match Node_id.Table.find_opt t.nodes nid with
          | Some other -> not (other == nnode)
          | None -> true)
        node.neighbors
    then
      Error
        (Format.asprintf "node %a: asymmetric or stale edge" Node_id.pp node.id)
    else Ok ()
  in
  List.fold_left
    (fun acc node ->
      let* () = acc in
      check_node node)
    (Ok ()) all
