(* Routing state is flat.  Nodes sit in one array indexed by id.
   Beside the node array, also by id, sit a liveness map (one byte per
   id), each node's zone bounds as one [float array], four floats per
   zone ([x_lo; x_hi; y_lo; y_hi]) in the order of [zones], and each
   node's neighbors as an [int array] of ids in increasing order.  So
   [is_alive] and [owns] load no node record, and [next_hop] is one
   loop over ints and unboxed floats: it looks up no table, follows no
   list, loads no node record and allocates nothing per neighbor.  The
   neighbor arrays only ever name alive nodes ([leave] removes the
   departing node from every neighbor's array), and their increasing
   order gives the routing tie-break, equal distance to the lower id,
   for free.  [join_at] and [leave] test adjacency on the bounds too,
   so changing the membership walks no zone list either.

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
}

type t = {
  mutable nodes : node array; (* by id; slots from [next_id] on are [vacant] *)
  mutable alive : Bytes.t; (* by id: '\001' while the node is alive *)
  mutable bounds : float array array;
      (* by id: an alive node's [zones] flattened, four floats each;
         [[||]] for every other id *)
  mutable neighbors : int array array;
      (* by id: an alive node's alive neighbor ids, increasing; [[||]]
         for every other id *)
  mutable scratch : int array; (* [link_split]'s working space *)
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
let vacant = { id = Node_id.of_int 0; zones = []; leaves = [] }

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

let ids_of a = Array.fold_right (fun n acc -> Node_id.of_int n :: acc) a []

let neighbors t id =
  if is_alive t id then ids_of t.neighbors.(Node_id.to_int id)
  else raise Not_found

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
      let ns = t.neighbors.(i) in
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

(* [a] without [drop] unless [drop < 0], and with [add] appended unless
   [add < 0], in one copy: [a] holds [drop], and [add] is above every
   id in [a]. *)
let drop_append a drop add =
  let len = Array.length a in
  let cut = if drop < 0 then len else index_of a drop 0 in
  let b =
    Array.make
      (len - (if drop < 0 then 0 else 1) + if add < 0 then 0 else 1)
      add
  in
  Array.blit a 0 b 0 cut;
  if drop >= 0 then Array.blit a (cut + 1) b cut (len - cut - 1);
  b

(* {2 Adjacency on bounds}  {!Zone.adjacent} in the same float
   operations, so every answer is the same.  [if a <= b then a else b]
   stands in for [Float.min] and [if a >= b then a else b] for
   [Float.max], as in [axis_gap]; a zero's sign cannot change the
   overlap test's [> 0.]. *)

let[@inline] seam_eq a b = a = b || (a = 0. && b = 1.) || (a = 1. && b = 0.)

let[@inline] overlap a_lo a_hi b_lo b_hi =
  (if a_hi <= b_hi then a_hi else b_hi) -. (if a_lo >= b_lo then a_lo else b_lo)
  > 0.

(* Whether zone [i] of bounds [a] and zone [k] of bounds [b] are
   adjacent. *)
let zones_adjacent (a : float array) i (b : float array) k =
  let ax_lo = a.(i) and ax_hi = a.(i + 1) in
  let ay_lo = a.(i + 2) and ay_hi = a.(i + 3) in
  let bx_lo = b.(k) and bx_hi = b.(k + 1) in
  let by_lo = b.(k + 2) and by_hi = b.(k + 3) in
  ((seam_eq ax_hi bx_lo || seam_eq bx_hi ax_lo)
  && overlap ay_lo ay_hi by_lo by_hi)
  || ((seam_eq ay_hi by_lo || seam_eq by_hi ay_lo)
     && overlap ax_lo ax_hi bx_lo bx_hi)

(* Whether [a]'s zone [i] is adjacent to one of [b]'s zones from zone
   [k] on, or a later zone of [a] to any zone of [b]. *)
let rec regions_adjacent a i b k =
  if i >= Array.length a then false
  else if k >= Array.length b then regions_adjacent a (i + 4) b 0
  else zones_adjacent a i b k || regions_adjacent a i b (k + 4)

(* [nodes_adjacent] on two nodes' bounds. *)
let bounds_adjacent a b = regions_adjacent a 0 b 0

(* A new node owning [zone], whose tree leaf is [leaf].  Its neighbor
   array is the caller's to fill. *)
let fresh_node t zone leaf =
  let i = t.next_id in
  if i = Array.length t.nodes then begin
    let more = Stdlib.max 1 i in
    t.nodes <- Array.append t.nodes (Array.make more vacant);
    t.alive <- Bytes.cat t.alive (Bytes.make more '\000');
    t.bounds <- Array.append t.bounds (Array.make more [||]);
    t.neighbors <- Array.append t.neighbors (Array.make more [||])
  end;
  let node = { id = Node_id.of_int i; zones = [ zone ]; leaves = [ leaf ] } in
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

(* The edges a split changes, in one pass: node [o] has just given the
   new node [fresh] half of a zone, and only [o]'s previous neighbors
   can gain or lose an edge.  Each is tested once against [fresh]'s
   zone and once against [o]'s remaining region, and its array is
   copied at most once: it loses [o] when it no longer abuts [o], and
   gains [fresh], above every other id, by an append.  The two halves
   of a split zone abut, so [o] and [fresh] are always linked.  The
   loop runs downward over the previous neighbors merged with [o]
   itself, so the changed nodes are consed in increasing order, and
   [fresh]'s and [o]'s arrays fill [scratch] from the top ([fresh]'s
   in cells [0 .. len], [o]'s in [len + 1 .. 2 len + 1]), each then
   copied out once.  Returns the nodes whose arrays changed, [o] among
   them, in increasing order. *)
let link_split t o fresh =
  let prev = t.neighbors.(o) in
  let len = Array.length prev in
  if Array.length t.scratch < 2 * (len + 1) then
    t.scratch <- Array.make (4 * (len + 1)) 0;
  let s = t.scratch in
  let fresh_b = t.bounds.(fresh) and o_b = t.bounds.(o) in
  let top_fresh = ref len and top_o = ref ((2 * len) + 1) in
  s.(!top_o) <- fresh;
  decr top_o;
  let changed = ref [] and j = ref (len - 1) and o_placed = ref false in
  while !j >= 0 || not !o_placed do
    if (not !o_placed) && (!j < 0 || prev.(!j) < o) then begin
      o_placed := true;
      s.(!top_fresh) <- o;
      decr top_fresh;
      changed := Node_id.of_int o :: !changed
    end
    else begin
      let m = prev.(!j) in
      decr j;
      let m_b = t.bounds.(m) in
      let to_fresh = bounds_adjacent m_b fresh_b in
      let to_o = bounds_adjacent m_b o_b in
      if to_fresh then begin
        s.(!top_fresh) <- m;
        decr top_fresh
      end;
      if to_o then begin
        s.(!top_o) <- m;
        decr top_o
      end;
      if to_fresh || not to_o then begin
        t.neighbors.(m) <-
          drop_append t.neighbors.(m)
            (if to_o then -1 else o)
            (if to_fresh then fresh else -1);
        changed := Node_id.of_int m :: !changed
      end
    end
  done;
  t.neighbors.(fresh) <- Array.sub s (!top_fresh + 1) (len - !top_fresh);
  t.neighbors.(o) <- Array.sub s (!top_o + 1) ((2 * len) + 1 - !top_o);
  !changed

let join_at t p =
  if t.alive_count = 0 then begin
    t.cells <- 1;
    let node = fresh_node t Zone.unit 0 in
    { subject = node.id; peer = None; affected = [] }
  end
  else begin
    let leaf = leaf_of_point t p in
    let o = t.tags.(leaf) in
    let owner = t.nodes.(o) in
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
    t.tags.(keep_cell) <- o;
    let node = fresh_node t give give_cell in
    let affected = link_split t o (Node_id.to_int node.id) in
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
  let gone = Node_id.to_int id in
  let departing = t.neighbors.(gone) in
  (* CAN takeover rule: the neighbor with the smallest region absorbs
     the departing zones (lowest id on ties, for determinism: the
     neighbors come in increasing id order). *)
  let taker = ref (-1) and taker_v = ref 0. in
  for j = 0 to Array.length departing - 1 do
    let v = total_volume t.nodes.(departing.(j)) in
    if !taker < 0 || v < !taker_v then begin
      taker := departing.(j);
      taker_v := v
    end
  done;
  let taker = !taker in
  if taker < 0 then assert false (* alive > 1 implies at least one neighbor *);
  let taker_node = t.nodes.(taker) in
  Bytes.set t.alive gone '\000';
  t.bounds.(gone) <- [||];
  t.neighbors.(gone) <- [||];
  t.alive_count <- t.alive_count - 1;
  t.generation <- t.generation + 1;
  set_zones t taker_node (node.zones @ taker_node.zones)
    (node.leaves @ taker_node.leaves);
  List.iter (fun c -> t.tags.(c) <- taker) node.leaves;
  (* Every departing neighbor drops the departed node; one not yet
     linked to the taker gains it if it abuts the taker's grown
     region.  That region only grows, so no other edge changes, and
     the changed nodes are exactly the departing neighbors. *)
  let taker_b = t.bounds.(taker) in
  let gained = ref [] in
  for j = Array.length departing - 1 downto 0 do
    let m = departing.(j) in
    if m <> taker then begin
      let a = without_edge t.neighbors.(m) gone in
      if (not (linked a taker)) && bounds_adjacent t.bounds.(m) taker_b then begin
        t.neighbors.(m) <- with_edge a taker;
        gained := m :: !gained
      end
      else t.neighbors.(m) <- a
    end
  done;
  t.neighbors.(taker) <-
    List.fold_left with_edge (without_edge t.neighbors.(taker) gone) !gained;
  { subject = id; peer = Some taker_node.id; affected = ids_of departing }

let create ?rng ~n ~placement () =
  if n < 1 then invalid_arg "Topology.create: n must be >= 1";
  let t =
    {
      nodes = Array.make n vacant;
      alive = Bytes.make n '\000';
      bounds = Array.make n [||];
      neighbors = Array.make n [||];
      scratch = [||];
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
    if
      Bytes.length t.alive <> slots
      || Array.length t.bounds <> slots
      || Array.length t.neighbors <> slots
    then Error "liveness map, bounds or neighbor arrays not sized to the node array"
    else Ok ()
  in
  (* Every slot: the node array holds the id's node, the liveness map
     holds a flag that is set only below [next_id], and a slot that is
     not alive has no bounds and no neighbors. *)
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
          misplaced := Some (i, "is not alive but has zone bounds")
        else if flag = '\000' && t.neighbors.(i) <> [||] then
          misplaced := Some (i, "is not alive but has neighbors"))
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
    else if t.neighbors.(Node_id.to_int node.id) <> geometric then
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
