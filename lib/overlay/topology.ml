(* Routing state is flat.  Nodes sit in one array indexed by id.  A
   node keeps its neighbors as an [int array] of ids in increasing
   order.  Beside the node array, also by id, sit a liveness map (one
   byte per id) and each node's zone bounds as one [float array], four
   floats per zone ([x_lo; x_hi; y_lo; y_hi]) in the order of [zones].
   So [is_alive] and [owns] load no node record, and [next_hop] is one
   loop over ints and unboxed floats: it looks up no table, follows no
   list, loads no neighbor's record and allocates nothing per neighbor.
   The neighbor arrays only ever name alive nodes ([leave] removes the
   departing node from every neighbor's array), and their increasing
   order gives the routing tie-break, equal distance to the lower id,
   for free.

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
  mutable neighbors : int array; (* alive neighbor ids, increasing *)
}

type t = {
  mutable nodes : node array; (* by id; slots from [next_id] on are [vacant] *)
  mutable alive : Bytes.t; (* by id: '\001' while the node is alive *)
  mutable bounds : float array array;
      (* by id: an alive node's [zones] flattened, four floats each;
         [[||]] for every other id *)
  mutable alive_count : int;
  mutable next_id : int;
  mutable generation : int; (* bumped on every membership change *)
  mutable ids_gen : int; (* generation [ids_cache] was computed at *)
  mutable ids_cache : Node_id.t list;
  mutable tags : int array; (* per cell: leaf owner, or inner code *)
  mutable mids : float array; (* per inner cell: the cut coordinate *)
  mutable cells : int; (* cells in use *)
  mutable key_points : Point.t array; (* per key: its point, or [unset] *)
}

type change = {
  subject : Node_id.t;
  peer : Node_id.t option;
  affected : Node_id.t list;
}

(* Fills the node slots no id has reached yet.  Never mutated. *)
let vacant = { id = Node_id.of_int 0; zones = []; leaves = []; neighbors = [||] }

let bounds_of zones =
  let b = Array.make (4 * List.length zones) 0. in
  List.iteri
    (fun i (z : Zone.t) ->
      b.(4 * i) <- z.x_lo;
      b.((4 * i) + 1) <- z.x_hi;
      b.((4 * i) + 2) <- z.y_lo;
      b.((4 * i) + 3) <- z.y_hi)
    zones;
  b

let set_zones t node zones leaves =
  node.zones <- zones;
  node.leaves <- leaves;
  t.bounds.(Node_id.to_int node.id) <- bounds_of zones

let[@inline] alive_at t i = Bytes.get t.alive i <> '\000'

let is_alive t id =
  let i = Node_id.to_int id in
  i < t.next_id && alive_at t i

let get t id =
  if is_alive t id then t.nodes.(Node_id.to_int id) else raise Not_found

let size t = t.alive_count

let generation t = t.generation

(* The sorted membership is re-requested constantly (reports, bench
   setup, invariant checks) but only changes on join/leave: cache it on
   the generation counter. *)
let node_ids t =
  if t.ids_gen = t.generation then t.ids_cache
  else begin
    let ids = ref [] in
    for i = t.next_id - 1 downto 0 do
      if alive_at t i then ids := t.nodes.(i).id :: !ids
    done;
    t.ids_gen <- t.generation;
    t.ids_cache <- !ids;
    !ids
  end

let neighbors t id =
  Array.fold_right
    (fun n acc -> Node_id.of_int n :: acc)
    (get t id).neighbors []

let neighbor_nodes t node =
  Array.fold_right (fun n acc -> t.nodes.(n) :: acc) node.neighbors []

let zones_of t id = (get t id).zones

let nodes_adjacent a b =
  List.exists
    (fun za -> List.exists (fun zb -> Zone.adjacent za zb) b.zones)
    a.zones

(* Whether one of the zones in [b], a node's bounds from zone [k] on,
   holds [p]: {!Zone.contains}. *)
let rec bounds_contain b (p : Point.t) k =
  k < Array.length b
  && ((b.(k) <= p.x && p.x < b.(k + 1) && b.(k + 2) <= p.y && p.y < b.(k + 3))
     || bounds_contain b p (k + 4))

(* {!Zone.distance_to_point}'s term for one axis, in the same float
   operations.  [if a <= b then a else b] stands in for [Float.min]:
   the two agree on these non-negative, non-NaN values. *)
let[@inline] axis_gap c lo hi =
  if lo <= c && c < hi then 0.
  else
    let a = Float.abs (c -. lo) and b = Float.abs (c -. hi) in
    let a = if a <= 1. -. a then a else 1. -. a in
    let b = if b <= 1. -. b then b else 1. -. b in
    if a <= b then a else b

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

(* A key's point is asked for on every routing call, so keep each
   key's [Key.to_point] in [key_points], filled on first use, for keys
   below [max_point_key]. *)
let max_point_key = 1 lsl 20
let unset = { Point.x = Float.nan; y = Float.nan }

let key_point t key =
  let k = Key.to_int key in
  if k >= max_point_key then Key.to_point key
  else begin
    let n = Array.length t.key_points in
    if k >= n then begin
      let grown = Array.make (Stdlib.max (k + 1) (2 * n)) unset in
      Array.blit t.key_points 0 grown 0 n;
      t.key_points <- grown
    end;
    let p = t.key_points.(k) in
    if p != unset then p
    else begin
      let p = Key.to_point key in
      t.key_points.(k) <- p;
      p
    end
  end

let owner_of_key t k = owner_of_point t (key_point t k)

let owns t id p = is_alive t id && bounds_contain t.bounds.(Node_id.to_int id) p 0

(* Greedy CAN step: the neighbor whose region is closest to [p].  A
   region's distance is the least [Zone.distance_to_point] over its
   zones; neighbors are visited in increasing id order and only a
   strictly smaller distance displaces the best so far, so ties go to
   the lower id. *)
let next_hop t id (p : Point.t) =
  if not (is_alive t id) then Route.Stuck Route.Dead_node
  else
    let i = Node_id.to_int id in
    if bounds_contain t.bounds.(i) p 0 then Route.Owner
    else
      let ns = t.nodes.(i).neighbors in
      if Array.length ns = 0 then Route.Stuck Route.No_progress
      else begin
        let best = ref ns.(0) and best_d = ref Float.infinity in
        for j = 0 to Array.length ns - 1 do
          let b = t.bounds.(ns.(j)) in
          let d = ref Float.infinity and k = ref 0 in
          while !k < Array.length b do
            let dx = axis_gap p.x b.(!k) b.(!k + 1) in
            let dy = axis_gap p.y b.(!k + 2) b.(!k + 3) in
            let dz = sqrt ((dx *. dx) +. (dy *. dy)) in
            if dz < !d then d := dz;
            k := !k + 4
          done;
          if j = 0 || !d < !best_d then begin
            best := ns.(j);
            best_d := !d
          end
        done;
        Route.Forward (Node_id.of_int !best)
      end

let route t ~from p =
  Route.walk ~limit:((4 * t.alive_count) + 64)
    ~next_hop:(fun current -> next_hop t current p)
    from

(* {2 Sorted neighbor arrays}  A node has a handful of neighbors and
   edges change only on join and leave, so membership is a scan and an
   edit is a copy. *)

let rec index_of a (n : int) i =
  if i = Array.length a then -1
  else if a.(i) = n then i
  else index_of a n (i + 1)

let linked a n = index_of a n 0 >= 0

let with_edge a n =
  let i = ref 0 in
  while !i < Array.length a && a.(!i) < n do
    incr i
  done;
  let b = Array.make (Array.length a + 1) n in
  Array.blit a 0 b 0 !i;
  Array.blit a !i b (!i + 1) (Array.length a - !i);
  b

let without_edge a n =
  let i = index_of a n 0 in
  if i < 0 then a
  else begin
    let b = Array.make (Array.length a - 1) 0 in
    Array.blit a 0 b 0 i;
    Array.blit a (i + 1) b i (Array.length a - 1 - i);
    b
  end

(* Recompute the neighbor relation between [node] and every candidate,
   fixing both directions.  Returns candidates whose sets changed. *)
let refresh_edges t node candidates =
  let n = Node_id.to_int node.id in
  List.filter
    (fun cand ->
      if (not (is_alive t cand.id)) || Node_id.equal cand.id node.id then false
      else begin
        let c = Node_id.to_int cand.id in
        let adjacent = nodes_adjacent node cand in
        let had = linked node.neighbors c in
        if adjacent && not had then begin
          node.neighbors <- with_edge node.neighbors c;
          cand.neighbors <- with_edge cand.neighbors n;
          true
        end
        else if (not adjacent) && had then begin
          node.neighbors <- without_edge node.neighbors c;
          cand.neighbors <- without_edge cand.neighbors n;
          true
        end
        else false
      end)
    candidates

(* A new node owning [zone], whose tree leaf is [leaf]. *)
let fresh_node t zone leaf =
  let i = t.next_id in
  if i = Array.length t.nodes then begin
    let more = Stdlib.max 1 i in
    t.nodes <- Array.append t.nodes (Array.make more vacant);
    t.alive <- Bytes.cat t.alive (Bytes.make more '\000');
    t.bounds <- Array.append t.bounds (Array.make more [||])
  end;
  let node =
    { id = Node_id.of_int i; zones = [ zone ]; leaves = [ leaf ]; neighbors = [||] }
  in
  t.nodes.(i) <- node;
  Bytes.set t.alive i '\001';
  t.bounds.(i) <- bounds_of [ zone ];
  t.next_id <- i + 1;
  t.tags.(leaf) <- i;
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
    set_zones t owner
      (keep :: List.filter (fun z -> not (Zone.equal z zone)) owner.zones)
      (keep_cell :: List.filter (fun c -> c <> leaf) owner.leaves);
    t.tags.(keep_cell) <- (owner.id :> int);
    let node = fresh_node t give give_cell in
    (* Only previous neighbors of the split node (and the split node
       itself) can gain or lose an edge. *)
    let candidates = owner :: neighbor_nodes t owner in
    let touched_new = refresh_edges t node candidates in
    let touched_owner = refresh_edges t owner candidates in
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
  let departing_neighbors = neighbor_nodes t node in
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
  let gone = Node_id.to_int id in
  Bytes.set t.alive gone '\000';
  t.bounds.(gone) <- [||];
  t.alive_count <- t.alive_count - 1;
  t.generation <- t.generation + 1;
  (* Drop the departed node from every neighbor's array. *)
  List.iter
    (fun n -> n.neighbors <- without_edge n.neighbors gone)
    departing_neighbors;
  set_zones t taker (node.zones @ taker.zones) (node.leaves @ taker.leaves);
  List.iter (fun c -> t.tags.(c) <- (taker.id :> int)) node.leaves;
  let candidates =
    List.filter (fun n -> not (Node_id.equal n.id taker.id)) departing_neighbors
    @ neighbor_nodes t taker
  in
  let touched = refresh_edges t taker candidates in
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
      nodes = Array.make n vacant;
      alive = Bytes.make n '\000';
      bounds = Array.make n [||];
      alive_count = 0;
      next_id = 0;
      generation = 0;
      ids_gen = -1;
      ids_cache = [];
      tags = Array.make (2 * n) 0;
      mids = Array.make (2 * n) 0.;
      cells = 0;
      key_points = [||];
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
  let* () =
    let slots = Array.length t.nodes in
    if Bytes.length t.alive <> slots || Array.length t.bounds <> slots then
      Error "liveness map or bounds array not sized to the node array"
    else Ok ()
  in
  (* Every slot: the node array holds the id's node, the liveness map
     holds a flag that is set only below [next_id], and a slot that is
     not alive has no bounds. *)
  let* () =
    let misplaced = ref None in
    Array.iteri
      (fun i node ->
        let flag = Bytes.get t.alive i in
        if
          (i < t.next_id && Node_id.to_int node.id <> i)
          || (i >= t.next_id && node != vacant)
        then misplaced := Some (i, "holds the wrong node")
        else if flag <> '\000' && (flag <> '\001' || i >= t.next_id) then
          misplaced := Some (i, "has a bad liveness flag")
        else if flag = '\000' && t.bounds.(i) <> [||] then
          misplaced := Some (i, "is not alive but has zone bounds"))
      t.nodes;
    match !misplaced with
    | None -> Ok ()
    | Some (i, what) -> Error (Printf.sprintf "node slot %d %s" i what)
  in
  let all =
    List.filteri (fun i _ -> i < t.next_id && alive_at t i) (Array.to_list t.nodes)
  in
  let* () =
    if List.length all = t.alive_count then Ok ()
    else Error "alive count does not match the node array"
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
      match get t (Node_id.of_int tag) with
      | owner when held c zone owner.leaves owner.zones -> Ok (count + 1)
      | _ | (exception Not_found) ->
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
  (* The flat routing state: an alive node's bounds are its zones
     flattened, and its neighbor array is exactly the geometrically
     adjacent alive nodes, in increasing order ([all] is in id order). *)
  let check_node node =
    let geometric =
      List.filter
        (fun other ->
          (not (Node_id.equal other.id node.id)) && nodes_adjacent node other)
        all
      |> List.map (fun n -> Node_id.to_int n.id)
      |> Array.of_list
    in
    if t.bounds.(Node_id.to_int node.id) <> bounds_of node.zones then
      Error
        (Format.asprintf "node %a: zone bounds out of sync" Node_id.pp node.id)
    else if node.neighbors <> geometric then
      Error
        (Format.asprintf "node %a: neighbor array out of sync" Node_id.pp
           node.id)
    else Ok ()
  in
  List.fold_left
    (fun acc node ->
      let* () = acc in
      check_node node)
    (Ok ()) all
