(* Tests for Cup_overlay: torus geometry, zones, keys, and the CAN
   topology (join/leave/routing). *)

module Point = Cup_overlay.Point
module Zone = Cup_overlay.Zone
module Key = Cup_overlay.Key
module Node_id = Cup_overlay.Node_id
module T = Cup_overlay.Topology
module Route = Cup_overlay.Route
module Rng = Cup_prng.Rng

(* Hop list of a route that must succeed. *)
let hops r = Route.hops_exn r

(* {1 Point} *)

let test_point_wraps () =
  let p = Point.make ~x:1.25 ~y:(-0.25) in
  Alcotest.(check (float 1e-9)) "x wrapped" 0.25 p.Point.x;
  Alcotest.(check (float 1e-9)) "y wrapped" 0.75 p.Point.y

let test_axis_distance () =
  Alcotest.(check (float 1e-9)) "plain" 0.2 (Point.axis_distance 0.1 0.3);
  Alcotest.(check (float 1e-9)) "around the seam" 0.2
    (Point.axis_distance 0.9 0.1);
  Alcotest.(check (float 1e-9)) "max is 1/2" 0.5 (Point.axis_distance 0. 0.5)

let test_point_distance_symmetric () =
  let p = Point.make ~x:0.1 ~y:0.9 and q = Point.make ~x:0.8 ~y:0.2 in
  Alcotest.(check (float 1e-9)) "symmetry" (Point.distance p q)
    (Point.distance q p);
  Alcotest.(check (float 1e-9)) "self distance" 0. (Point.distance p p)

(* {1 Zone} *)

let test_zone_make_validates () =
  Alcotest.check_raises "inverted bounds"
    (Invalid_argument "Zone.make: bounds must satisfy 0 <= lo < hi <= 1")
    (fun () -> ignore (Zone.make ~x_lo:0.5 ~x_hi:0.2 ~y_lo:0. ~y_hi:1.))

let test_zone_contains_half_open () =
  let z = Zone.make ~x_lo:0. ~x_hi:0.5 ~y_lo:0. ~y_hi:0.5 in
  Alcotest.(check bool) "inside" true (Zone.contains z (Point.make ~x:0.25 ~y:0.25));
  Alcotest.(check bool) "low edge included" true
    (Zone.contains z (Point.make ~x:0. ~y:0.));
  Alcotest.(check bool) "high edge excluded" false
    (Zone.contains z (Point.make ~x:0.5 ~y:0.25))

let test_zone_split_halves_longer_dim () =
  let z = Zone.make ~x_lo:0. ~x_hi:1. ~y_lo:0. ~y_hi:0.5 in
  let low, high = Zone.split z in
  Alcotest.(check (float 1e-9)) "volumes halve" (Zone.volume z /. 2.)
    (Zone.volume low);
  Alcotest.(check (float 1e-9)) "low x_hi" 0.5 low.Zone.x_hi;
  Alcotest.(check (float 1e-9)) "high x_lo" 0.5 high.Zone.x_lo;
  (* square splits along x *)
  let sq = Zone.make ~x_lo:0. ~x_hi:0.5 ~y_lo:0. ~y_hi:0.5 in
  let l, _ = Zone.split sq in
  Alcotest.(check (float 1e-9)) "square splits x first" 0.25 l.Zone.x_hi

let test_zone_adjacent_basic () =
  let a = Zone.make ~x_lo:0. ~x_hi:0.5 ~y_lo:0. ~y_hi:0.5 in
  let b = Zone.make ~x_lo:0.5 ~x_hi:1. ~y_lo:0. ~y_hi:0.5 in
  let c = Zone.make ~x_lo:0.5 ~x_hi:1. ~y_lo:0.5 ~y_hi:1. in
  Alcotest.(check bool) "side by side" true (Zone.adjacent a b);
  Alcotest.(check bool) "diagonal is not adjacent" false (Zone.adjacent a c);
  Alcotest.(check bool) "symmetric" (Zone.adjacent b a) (Zone.adjacent a b)

let test_zone_adjacent_across_seam () =
  let left = Zone.make ~x_lo:0. ~x_hi:0.25 ~y_lo:0. ~y_hi:1. in
  let right = Zone.make ~x_lo:0.75 ~x_hi:1. ~y_lo:0. ~y_hi:1. in
  Alcotest.(check bool) "wraps around the torus seam" true
    (Zone.adjacent left right)

let test_zone_distance_to_point () =
  let z = Zone.make ~x_lo:0.25 ~x_hi:0.5 ~y_lo:0.25 ~y_hi:0.5 in
  Alcotest.(check (float 1e-9)) "inside is zero" 0.
    (Zone.distance_to_point z (Point.make ~x:0.3 ~y:0.3));
  Alcotest.(check (float 1e-9)) "axis-aligned outside" 0.1
    (Zone.distance_to_point z (Point.make ~x:0.6 ~y:0.3));
  (* wrap-around shortcut: point at x=0.9 is 0.15 from x_lo=0.25 going
     left across the seam... actually 0.35 left vs 0.4 right; distance
     to the interval is min(dist to 0.25, dist to 0.5) = min(0.35, 0.4). *)
  Alcotest.(check (float 1e-9)) "wraparound distance" 0.35
    (Zone.distance_to_point z (Point.make ~x:0.9 ~y:0.3))

(* {1 Key} *)

let test_key_point_deterministic () =
  let k = Key.of_int 12345 in
  Alcotest.(check bool) "same key same point" true
    (Point.equal (Key.to_point k) (Key.to_point k));
  Alcotest.(check bool) "different keys differ" false
    (Point.equal (Key.to_point (Key.of_int 1)) (Key.to_point (Key.of_int 2)))

let test_key_points_spread () =
  (* Hash quality: 1000 keys should land in most of a 4x4 bucket grid. *)
  let buckets = Hashtbl.create 16 in
  for k = 0 to 999 do
    let p = Key.to_point (Key.of_int k) in
    let bx = int_of_float (p.Point.x *. 4.) and by = int_of_float (p.Point.y *. 4.) in
    Hashtbl.replace buckets (bx, by) ()
  done;
  Alcotest.(check int) "all 16 buckets hit" 16 (Hashtbl.length buckets)

let test_key_negative_rejected () =
  Alcotest.check_raises "negative key"
    (Invalid_argument "Key.of_int: negative key") (fun () ->
      ignore (Key.of_int (-1)))

(* {1 Topology} *)

let check_invariants t label =
  match T.check_invariants t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" label msg

let test_topo_single_node () =
  let t = T.create ~n:1 ~placement:`Grid () in
  Alcotest.(check int) "size" 1 (T.size t);
  let id = List.hd (T.node_ids t) in
  Alcotest.(check (list int)) "no neighbors" []
    (List.map Node_id.to_int (T.neighbors t id));
  Alcotest.(check bool) "owns everything" true
    (T.next_hop t id (Point.make ~x:0.9 ~y:0.1) = Route.Owner)

let test_topo_grid_build () =
  List.iter
    (fun n ->
      let t = T.create ~n ~placement:`Grid () in
      Alcotest.(check int) "size" n (T.size t);
      check_invariants t (Printf.sprintf "grid %d" n))
    [ 2; 4; 16; 64; 100 ]

let test_topo_random_build () =
  let rng = Rng.create ~seed:17 in
  List.iter
    (fun n ->
      let t = T.create ~rng ~n ~placement:`Random () in
      Alcotest.(check int) "size" n (T.size t);
      check_invariants t (Printf.sprintf "random %d" n))
    [ 2; 3; 7; 33; 128 ]

let test_topo_random_needs_rng () =
  Alcotest.check_raises "no rng"
    (Invalid_argument "Topology.create: `Random needs ~rng") (fun () ->
      ignore (T.create ~n:4 ~placement:`Random ()))

let test_topo_route_reaches_owner () =
  let rng = Rng.create ~seed:18 in
  let t = T.create ~rng ~n:64 ~placement:`Random () in
  let ids = Array.of_list (T.node_ids t) in
  for k = 0 to 99 do
    let key = Key.of_int k in
    let from = ids.(k mod Array.length ids) in
    let owner = T.owner_of_key t key in
    match List.rev (hops (T.route t ~from (Key.to_point key))) with
    | [] ->
        Alcotest.(check bool) "already owner" true (Node_id.equal from owner)
    | last :: _ ->
        Alcotest.(check bool) "route ends at owner" true
          (Node_id.equal last owner)
  done

let test_topo_next_hop_is_neighbor () =
  let rng = Rng.create ~seed:19 in
  let t = T.create ~rng ~n:32 ~placement:`Random () in
  List.iter
    (fun id ->
      let p = Key.to_point (Key.of_int 5) in
      match T.next_hop t id p with
      | Route.Owner | Route.Stuck _ -> ()
      | Route.Forward hop ->
          Alcotest.(check bool) "hop is a neighbor" true
            (List.exists (Node_id.equal hop) (T.neighbors t id)))
    (T.node_ids t)

let test_topo_join_returns_change () =
  let rng = Rng.create ~seed:20 in
  let t = T.create ~rng ~n:8 ~placement:`Random () in
  let change = T.join_random t ~rng in
  Alcotest.(check int) "size grew" 9 (T.size t);
  Alcotest.(check bool) "subject alive" true (T.is_alive t change.T.subject);
  (match change.T.peer with
  | Some peer ->
      Alcotest.(check bool) "peer is a neighbor of subject" true
        (List.exists (Node_id.equal peer) (T.neighbors t change.T.subject))
  | None -> Alcotest.fail "join must report the split node");
  check_invariants t "after join"

let test_topo_leave_hands_over () =
  let rng = Rng.create ~seed:21 in
  let t = T.create ~rng ~n:8 ~placement:`Random () in
  let victim = List.hd (T.node_ids t) in
  let volume_before =
    List.fold_left (fun acc z -> acc +. Zone.volume z) 0. (T.zones_of t victim)
  in
  let change = T.leave t victim in
  Alcotest.(check int) "size shrank" 7 (T.size t);
  Alcotest.(check bool) "victim dead" false (T.is_alive t victim);
  (match change.T.peer with
  | Some taker ->
      let taker_volume =
        List.fold_left (fun acc z -> acc +. Zone.volume z) 0.
          (T.zones_of t taker)
      in
      Alcotest.(check bool) "taker absorbed the volume" true
        (taker_volume >= volume_before)
  | None -> Alcotest.fail "leave must report the taker");
  check_invariants t "after leave"

let test_topo_leave_last_rejected () =
  let t = T.create ~n:1 ~placement:`Grid () in
  let id = List.hd (T.node_ids t) in
  Alcotest.check_raises "cannot remove last"
    (Invalid_argument "Topology.leave: cannot remove last node") (fun () ->
      ignore (T.leave t id))

let test_topo_leave_dead_rejected () =
  let rng = Rng.create ~seed:22 in
  let t = T.create ~rng ~n:4 ~placement:`Random () in
  let victim = List.hd (T.node_ids t) in
  ignore (T.leave t victim);
  Alcotest.check_raises "dead node"
    (Invalid_argument "Topology.leave: unknown or dead node") (fun () ->
      ignore (T.leave t victim))

let prop_churn_preserves_invariants =
  QCheck.Test.make ~count:25 ~name:"random churn keeps the topology valid"
    QCheck.(pair small_int (list bool))
    (fun (seed, moves) ->
      let rng = Rng.create ~seed in
      let t = T.create ~rng ~n:12 ~placement:`Random () in
      List.iter
        (fun join ->
          if join || T.size t <= 2 then ignore (T.join_random t ~rng)
          else begin
            let ids = Array.of_list (T.node_ids t) in
            ignore (T.leave t ids.(Rng.int rng (Array.length ids)))
          end)
        moves;
      T.check_invariants t = Ok ())

let prop_route_terminates =
  QCheck.Test.make ~count:50 ~name:"greedy routing reaches the key owner"
    QCheck.(pair small_int (int_bound 10_000))
    (fun (seed, key) ->
      let rng = Rng.create ~seed in
      let t = T.create ~rng ~n:48 ~placement:`Random () in
      let key = Key.of_int key in
      let owner = T.owner_of_key t key in
      List.for_all
        (fun from ->
          match List.rev (hops (T.route t ~from (Key.to_point key))) with
          | [] -> Node_id.equal from owner
          | last :: _ -> Node_id.equal last owner)
        (T.node_ids t))

(* {1 Point location: zone-split tree vs linear scan} *)

(* Reference oracle: the linear scan [Topology.owner_of_point] used to
   be, over the public API — every alive node whose region holds [p],
   lowest id first. *)
let scan_owner_of_point t p =
  let found =
    List.fold_left
      (fun acc id ->
        if List.exists (fun z -> Zone.contains z p) (T.zones_of t id) then
          match acc with
          | Some best when Node_id.compare best id <= 0 -> acc
          | Some _ | None -> Some id
        else acc)
      None (T.node_ids t)
  in
  match found with
  | Some id -> id
  | None -> failwith "Topology.owner_of_point: space not covered"

let located f p = match f p with id -> Ok id | exception Failure m -> Error m

(* Where the tree and the scan could disagree: every zone's corners,
   edge midpoints and center (the zone's next cut runs through its
   center), the float just below each high edge, the torus seams, the
   key points, and points outside the unit square, where both must
   fail alike. *)
let probe_points t =
  let pt x y = { Point.x; y } in
  let zone_points (z : Zone.t) =
    let xs = [ z.x_lo; Float.pred z.x_hi; z.x_hi; (z.x_lo +. z.x_hi) /. 2. ] in
    let ys = [ z.y_lo; Float.pred z.y_hi; z.y_hi; (z.y_lo +. z.y_hi) /. 2. ] in
    List.concat_map (fun x -> List.map (pt x) ys) xs
  in
  List.concat_map (fun id -> List.concat_map zone_points (T.zones_of t id))
    (T.node_ids t)
  @ [ pt 0. 0.; pt (-0.) 0.5; pt 1. 0.5; pt 0.5 1.; pt (-1e-300) 0.5;
      pt 0.5 2.; pt Float.nan 0.5; pt 0.5 Float.infinity ]
  @ List.init 64 (fun k -> Key.to_point (Key.of_int k))

let tree_matches_scan t =
  List.for_all
    (fun p -> located (T.owner_of_point t) p = located (scan_owner_of_point t) p)
    (probe_points t)

type move = Join_random | Join_at_corner of int | Leave of int

let move_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Join_random);
        (1, map (fun i -> Join_at_corner i) nat);
        (2, map (fun i -> Leave i) nat);
      ])

let print_move = function
  | Join_random -> "join"
  | Join_at_corner i -> Printf.sprintf "corner %d" i
  | Leave i -> Printf.sprintf "leave %d" i

let prop_tree_matches_scan =
  QCheck.Test.make ~count:60
    ~name:"tree point location equals the linear scan under churn"
    QCheck.(
      triple small_int bool
        (make ~print:(Print.list print_move)
           Gen.(list_size (0 -- 25) move_gen)))
    (fun (seed, grid, moves) ->
      let rng = Rng.create ~seed in
      let n = 1 + (seed mod 24) in
      let t =
        if grid then T.create ~n ~placement:`Grid ()
        else T.create ~rng ~n ~placement:`Random ()
      in
      let pick i = List.nth (T.node_ids t) (i mod T.size t) in
      tree_matches_scan t
      && List.for_all
           (fun move ->
             (match move with
             | Join_random -> ignore (T.join_random t ~rng)
             | Join_at_corner i ->
                 (* a join exactly on a zone's low corner splits at the
                    half-open boundary *)
                 let z = List.hd (T.zones_of t (pick i)) in
                 ignore (T.join_at t { Point.x = z.Zone.x_lo; y = z.Zone.y_lo })
             | Leave i -> if T.size t > 1 then ignore (T.leave t (pick i)));
             tree_matches_scan t && T.check_invariants t = Ok ())
           moves)

(* Reference for [`Grid]: split the largest zone, lowest owner id on
   ties, at its high half's center — the rule [Topology.create] used to
   apply by scanning every node per join. *)
let test_grid_matches_largest_zone_rule () =
  let reference = T.create ~n:1 ~placement:`Grid () in
  for n = 1 to 300 do
    let grid = T.create ~n ~placement:`Grid () in
    List.iter
      (fun id ->
        Alcotest.(check bool)
          (Format.asprintf "n=%d %a" n Node_id.pp id)
          true
          (List.equal Zone.equal (T.zones_of grid id) (T.zones_of reference id)))
      (T.node_ids reference);
    Alcotest.(check int) "size" (T.size reference) (T.size grid);
    let largest id =
      List.fold_left (fun m z -> Float.max m (Zone.volume z)) 0.
        (T.zones_of reference id)
    in
    let owner =
      List.fold_left
        (fun best id -> if largest id > largest best then id else best)
        (List.hd (T.node_ids reference))
        (T.node_ids reference)
    in
    let zone =
      List.hd
        (List.stable_sort
           (fun a b -> Float.compare (Zone.volume b) (Zone.volume a))
           (T.zones_of reference owner))
    in
    ignore (T.join_at reference (Zone.center (snd (Zone.split zone))))
  done

(* {1 Routing: flat next_hop vs the neighbor-map fold} *)

(* Reference oracle: [Topology.next_hop] as it was before its routing
   state went flat — a fold over a [Node_id.Map] of neighbor records in
   increasing id order, a neighbor's distance the least
   [Zone.distance_to_point] over its zone list, ties to the lower id.
   The map is rebuilt from the geometry (alive nodes with an abutting
   zone), never read from the topology, so a stale neighbor array or
   stale zone bounds cannot fool both sides. *)
let reference_neighbors t =
  let ids = T.node_ids t in
  List.map
    (fun id ->
      let zones = T.zones_of t id in
      let map =
        List.fold_left
          (fun m other ->
            let other_zones = T.zones_of t other in
            if
              (not (Node_id.equal other id))
              && List.exists
                   (fun a -> List.exists (Zone.adjacent a) other_zones)
                   zones
            then Node_id.Map.add other other_zones m
            else m)
          Node_id.Map.empty ids
      in
      (id, (zones, map)))
    ids

let reference_next_hop (zones, neighbors) p =
  if List.exists (fun z -> Zone.contains z p) zones then Route.Owner
  else
    let region_distance zs =
      List.fold_left
        (fun acc z -> Float.min acc (Zone.distance_to_point z p))
        Float.infinity zs
    in
    let best =
      Node_id.Map.fold
        (fun nid zs acc ->
          let d = region_distance zs in
          match acc with
          | Some (_, best_d) when best_d < d -> acc
          | Some (best_id, best_d)
            when best_d = d && Node_id.compare best_id nid <= 0 ->
              acc
          | Some _ | None -> Some (nid, d))
        neighbors None
    in
    match best with
    | Some (nid, _) -> Route.Forward nid
    | None -> Route.Stuck Route.No_progress

(* Where distances tie or sit on a boundary: every zone's corners, edge
   midpoints and center, the torus seams, and the key points. *)
let routing_probes t =
  let pt x y = { Point.x; y } in
  let zone_points (z : Zone.t) =
    let mx = (z.x_lo +. z.x_hi) /. 2. and my = (z.y_lo +. z.y_hi) /. 2. in
    [ pt z.x_lo z.y_lo; pt z.x_hi z.y_hi; pt z.x_lo z.y_hi; pt z.x_hi z.y_lo;
      pt mx z.y_lo; pt mx z.y_hi; pt z.x_lo my; pt z.x_hi my; pt mx my ]
  in
  List.concat_map (fun id -> List.concat_map zone_points (T.zones_of t id))
    (T.node_ids t)
  @ [ pt 0. 0.; pt 0. 0.5; pt 0.5 0.; pt 1. 1.; pt 0. 1.; pt 1. 0.25 ]
  @ List.init 64 (fun k -> T.key_point t (Key.of_int k))

let next_hop_matches_reference t =
  let probes = routing_probes t in
  List.for_all
    (fun (id, reference) ->
      List.for_all
        (fun p -> T.next_hop t id p = reference_next_hop reference p)
        probes)
    (reference_neighbors t)

let prop_next_hop_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"flat next_hop equals the neighbor-map fold under churn"
    QCheck.(
      triple small_int bool
        (make ~print:(Print.list print_move)
           Gen.(list_size (0 -- 25) move_gen)))
    (fun (seed, grid, moves) ->
      let rng = Rng.create ~seed in
      let n = 1 + (seed mod 24) in
      let t =
        if grid then T.create ~n ~placement:`Grid ()
        else T.create ~rng ~n ~placement:`Random ()
      in
      let pick i = List.nth (T.node_ids t) (i mod T.size t) in
      let agrees () =
        T.check_invariants t = Ok () && next_hop_matches_reference t
      in
      agrees ()
      && List.for_all
           (fun move ->
             (match move with
             | Join_random -> ignore (T.join_random t ~rng)
             | Join_at_corner i ->
                 let z = List.hd (T.zones_of t (pick i)) in
                 ignore (T.join_at t { Point.x = z.Zone.x_lo; y = z.Zone.y_lo })
             | Leave i -> if T.size t > 1 then ignore (T.leave t (pick i)));
             T.check_invariants t = Ok ())
           moves
      && agrees ())

(* Taker zones and grid ties, pinned: in a 4 x 4 grid, after node 5
   leaves, its taker owns two zones and every node's next hop toward
   every probe still matches the reference. *)
let test_next_hop_after_takeover () =
  let t = T.create ~n:16 ~placement:`Grid () in
  let change = T.leave t (Node_id.of_int 5) in
  let taker = Option.get change.T.peer in
  Alcotest.(check int) "taker holds two zones" 2
    (List.length (T.zones_of t taker));
  check_invariants t "after takeover";
  Alcotest.(check bool) "matches the reference" true
    (next_hop_matches_reference t)

(* The first call computes and stores the point, the second reads it
   back; keys from 2^20 on are computed every time. *)
let test_key_point_is_to_point () =
  let t = T.create ~n:4 ~placement:`Grid () in
  List.iter
    (fun k ->
      let key = Key.of_int k in
      let first = T.key_point t key in
      let again = T.key_point t key in
      Alcotest.(check bool)
        (Printf.sprintf "key %d" k)
        true
        (Point.equal first (Key.to_point key) && Point.equal again first))
    [ 0; 1; 7; 1000; 5000; (1 lsl 20) - 1; 1 lsl 20; (1 lsl 24) + 3 ]

(* {1 Chord} *)

module Chord = Cup_overlay.Chord
module Net = Cup_overlay.Net

let chord_invariants c label =
  match Chord.check_invariants c with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" label msg

let test_chord_single_node () =
  let c = Chord.create ~n:1 () in
  Alcotest.(check int) "size" 1 (Chord.size c);
  let id = List.hd (Chord.node_ids c) in
  Alcotest.(check bool) "owns everything" true
    (Chord.next_hop c id (Key.of_int 42) = Route.Owner);
  Alcotest.(check bool) "self successor" true
    (Node_id.equal (Chord.successor c id) id)

let test_chord_even_and_random_build () =
  List.iter
    (fun n ->
      let even = Chord.create ~n () in
      Alcotest.(check int) "even size" n (Chord.size even);
      chord_invariants even (Printf.sprintf "even %d" n))
    [ 2; 3; 8; 33 ];
  let rng = Rng.create ~seed:23 in
  List.iter
    (fun n ->
      let c = Chord.create ~rng ~n () in
      Alcotest.(check int) "random size" n (Chord.size c);
      chord_invariants c (Printf.sprintf "random %d" n))
    [ 2; 7; 64 ]

let test_chord_ring_order () =
  let rng = Rng.create ~seed:24 in
  let c = Chord.create ~rng ~n:16 () in
  (* walking successors visits every node exactly once *)
  let start = List.hd (Chord.node_ids c) in
  let rec walk current seen =
    let next = Chord.successor c current in
    if Node_id.equal next start then List.rev (current :: seen)
    else walk next (current :: seen)
  in
  let tour = walk start [] in
  Alcotest.(check int) "tour covers the ring" 16 (List.length tour);
  (* successor and predecessor are inverse *)
  List.iter
    (fun id ->
      Alcotest.(check bool) "pred (succ x) = x" true
        (Node_id.equal (Chord.predecessor c (Chord.successor c id)) id))
    (Chord.node_ids c)

let test_chord_route_reaches_owner () =
  let rng = Rng.create ~seed:25 in
  let c = Chord.create ~rng ~n:64 () in
  let ids = Array.of_list (Chord.node_ids c) in
  for k = 0 to 199 do
    let key = Key.of_int k in
    let from = ids.(k mod Array.length ids) in
    let owner = Chord.owner_of_key c key in
    match List.rev (hops (Chord.route c ~from key)) with
    | [] -> Alcotest.(check bool) "already owner" true (Node_id.equal from owner)
    | last :: _ ->
        Alcotest.(check bool) "route ends at owner" true
          (Node_id.equal last owner)
  done

let test_chord_path_length_logarithmic () =
  let rng = Rng.create ~seed:26 in
  let c = Chord.create ~rng ~n:256 () in
  let ids = Array.of_list (Chord.node_ids c) in
  let total = ref 0 in
  for k = 0 to 99 do
    let from = ids.(Rng.int rng (Array.length ids)) in
    total := !total + List.length (hops (Chord.route c ~from (Key.of_int k)))
  done;
  let avg = float_of_int !total /. 100. in
  (* expected ~ (log2 n)/2 = 4; generous upper bound well below the
     linear-scan regime *)
  Alcotest.(check bool) (Printf.sprintf "avg path %.1f is logarithmic" avg)
    true
    (avg < 12.)

let test_chord_neighbors_symmetric () =
  let rng = Rng.create ~seed:27 in
  let c = Chord.create ~rng ~n:32 () in
  List.iter
    (fun id ->
      List.iter
        (fun nb ->
          Alcotest.(check bool) "neighbor relation symmetric" true
            (List.exists (Node_id.equal id) (Chord.neighbors c nb)))
        (Chord.neighbors c id))
    (Chord.node_ids c)

let test_chord_join_leave () =
  let rng = Rng.create ~seed:28 in
  let c = Chord.create ~rng ~n:8 () in
  let change = Chord.join_random c ~rng in
  Alcotest.(check int) "grew" 9 (Chord.size c);
  Alcotest.(check bool) "peer reported" true (change.Chord.peer <> None);
  chord_invariants c "after join";
  let victim = List.hd (Chord.node_ids c) in
  let change = Chord.leave c victim in
  Alcotest.(check int) "shrank" 8 (Chord.size c);
  Alcotest.(check bool) "taker reported" true (change.Chord.peer <> None);
  Alcotest.(check bool) "victim dead" false (Chord.is_alive c victim);
  chord_invariants c "after leave";
  let only = Chord.create ~n:1 () in
  Alcotest.check_raises "last node protected"
    (Invalid_argument "Chord.leave: cannot remove last node") (fun () ->
      ignore (Chord.leave only (List.hd (Chord.node_ids only))))

let prop_chord_churn_invariants =
  QCheck.Test.make ~count:20 ~name:"chord churn keeps the ring valid"
    QCheck.(pair small_int (list bool))
    (fun (seed, moves) ->
      let rng = Rng.create ~seed in
      let c = Chord.create ~rng ~n:10 () in
      List.iter
        (fun join ->
          if join || Chord.size c <= 2 then ignore (Chord.join_random c ~rng)
          else begin
            let ids = Array.of_list (Chord.node_ids c) in
            ignore (Chord.leave c ids.(Rng.int rng (Array.length ids)))
          end)
        moves;
      Chord.check_invariants c = Ok ())

(* {1 Pastry} *)

module Pastry = Cup_overlay.Pastry

let pastry_invariants p label =
  match Pastry.check_invariants p with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" label msg

let test_pastry_builds () =
  List.iter
    (fun n ->
      let p = Pastry.create ~n () in
      Alcotest.(check int) "even size" n (Pastry.size p);
      pastry_invariants p (Printf.sprintf "even %d" n))
    [ 1; 2; 3; 9; 32 ];
  let rng = Rng.create ~seed:31 in
  List.iter
    (fun n ->
      let p = Pastry.create ~rng ~n () in
      pastry_invariants p (Printf.sprintf "random %d" n))
    [ 2; 17; 64 ]

let test_pastry_route_reaches_owner () =
  let rng = Rng.create ~seed:32 in
  let p = Pastry.create ~rng ~n:64 () in
  let ids = Array.of_list (Pastry.node_ids p) in
  for k = 0 to 199 do
    let key = Key.of_int k in
    let from = ids.(k mod Array.length ids) in
    let owner = Pastry.owner_of_key p key in
    match List.rev (hops (Pastry.route p ~from key)) with
    | [] -> Alcotest.(check bool) "already owner" true (Node_id.equal from owner)
    | last :: _ ->
        Alcotest.(check bool) "route ends at owner" true
          (Node_id.equal last owner)
  done

let test_pastry_paths_short () =
  let rng = Rng.create ~seed:33 in
  let p = Pastry.create ~rng ~n:256 () in
  let ids = Array.of_list (Pastry.node_ids p) in
  let total = ref 0 in
  for k = 0 to 99 do
    let from = ids.(Rng.int rng (Array.length ids)) in
    total := !total + List.length (hops (Pastry.route p ~from (Key.of_int k)))
  done;
  let avg = float_of_int !total /. 100. in
  (* prefix routing resolves ~a hex digit per hop: log16(256) = 2 *)
  Alcotest.(check bool) (Printf.sprintf "avg path %.2f ~ log16 n" avg) true
    (avg < 4.)

let test_pastry_owner_is_numerically_closest () =
  let rng = Rng.create ~seed:34 in
  let p = Pastry.create ~rng ~n:32 () in
  let key = Key.of_int 77 in
  let owner = Pastry.owner_of_key p key in
  let target = Cup_prng.Splitmix.mix 77L in
  let dist id =
    let a = Pastry.ident p id in
    let d1 = Int64.sub a target and d2 = Int64.sub target a in
    if Int64.unsigned_compare d1 d2 <= 0 then d1 else d2
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) "owner minimizes ring distance" true
        (Int64.unsigned_compare (dist owner) (dist id) <= 0))
    (Pastry.node_ids p)

let test_pastry_join_leave () =
  let rng = Rng.create ~seed:35 in
  let p = Pastry.create ~rng ~n:8 () in
  ignore (Pastry.join_random p ~rng);
  Alcotest.(check int) "grew" 9 (Pastry.size p);
  pastry_invariants p "after join";
  let victim = List.hd (Pastry.node_ids p) in
  let change = Pastry.leave p victim in
  Alcotest.(check bool) "taker reported" true (change.Pastry.peer <> None);
  pastry_invariants p "after leave"

let prop_pastry_churn_invariants =
  QCheck.Test.make ~count:15 ~name:"pastry churn keeps tables valid"
    QCheck.(pair small_int (list bool))
    (fun (seed, moves) ->
      let rng = Rng.create ~seed in
      let p = Pastry.create ~rng ~n:10 () in
      List.iter
        (fun join ->
          if join || Pastry.size p <= 2 then ignore (Pastry.join_random p ~rng)
          else begin
            let ids = Array.of_list (Pastry.node_ids p) in
            ignore (Pastry.leave p ids.(Rng.int rng (Array.length ids)))
          end)
        moves;
      Pastry.check_invariants p = Ok ())

(* {1 Node_key} *)

module Node_key = Cup_overlay.Node_key

(* A chained table over the pair's mix, as a caller outside the index
   would build one. *)
module Pair_table = Hashtbl.Make (struct
  type t = Node_key.t

  let equal (a : t) (b : t) = Int.equal (a :> int) (b :> int)
  let hash = Node_key.hash
end)

(* Every pair of an n x n grid, or of one key over n nodes, in one
   table.  [Hashtbl.hash] folds the node bits onto the key bits, so
   the grids would chain 1,024 and 256 deep; a mix whose low bits
   depend on the key alone puts one key's pairs in a quarter of the
   buckets, leaving 75% empty.  The table holds two pairs per bucket,
   where a uniform hash leaves e^-2 (13.5%) of the buckets empty. *)
let test_node_key_spread () =
  List.iter
    (fun (nodes, keys) ->
      let tbl = Pair_table.create 16 in
      for node = 0 to nodes - 1 do
        for key = 0 to keys - 1 do
          Pair_table.replace tbl
            (Node_key.pack (Node_id.of_int node) (Key.of_int key))
            ()
        done
      done;
      let stats = Pair_table.stats tbl in
      Alcotest.(check int)
        "every pair stored" (nodes * keys) stats.Hashtbl.num_bindings;
      Alcotest.(check bool)
        (Printf.sprintf "%d nodes x %d keys: longest chain %d <= 32" nodes
           keys stats.Hashtbl.max_bucket_length)
        true
        (stats.Hashtbl.max_bucket_length <= 32);
      let empty =
        float_of_int stats.Hashtbl.bucket_histogram.(0)
        /. float_of_int stats.Hashtbl.num_buckets
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d nodes x %d keys: %.1f%% of buckets empty <= 20%%"
           nodes keys (100. *. empty))
        true (empty <= 0.2))
    [ (1024, 1024); (256, 256); (4096, 1) ]

let prop_node_key_inverts_pack =
  let below_2_30 = QCheck.int_bound ((1 lsl 30) - 1) in
  QCheck.Test.make ~count:1000 ~name:"node and key invert pack"
    QCheck.(pair below_2_30 below_2_30)
    (fun (n, k) ->
      let packed = Node_key.pack (Node_id.of_int n) (Key.of_int k) in
      Node_id.to_int (Node_key.node packed) = n
      && Key.to_int (Node_key.key packed) = k)

(* The index against [Hashtbl] on random scripts.  Pairs come from
   three families that a weak mix would cluster: one key over
   consecutive nodes, one node over consecutive keys, and node ids just
   below 2^30.  An index created for one pair grows through six
   doublings, from 8 slots to 512, once it holds 64 pairs when it
   rebuilds; [I_cycle] removes every held pair and adds it back, so
   re-adds land on tombstones.  [I_fold] compares the held bindings as
   a set, [I_filter r] drops the values congruent to [r] mod 3, and
   [I_clear] empties both.  Adds outweigh removes 5 to 3, so the held
   count climbs towards 120 pairs over the first 600 steps.  Filters
   and clears are rare (1 step in 243 each), so of 200 scripts of up
   to 1,200 steps about 65% reach 64 held pairs and about 7% reach 512
   slots, while about 80% also fold, filter and clear. *)
type index_op =
  | I_add of int * int
  | I_find of int
  | I_remove of int
  | I_cycle
  | I_fold
  | I_filter of int
  | I_clear

let index_pairs =
  let pair n k = Node_key.pack (Node_id.of_int n) (Key.of_int k) in
  Array.concat
    [
      Array.init 64 (fun i -> pair (100 + i) 7);
      Array.init 64 (fun i -> pair 3 i);
      Array.init 64 (fun i -> pair ((1 lsl 30) - 1 - i) (i mod 5));
    ]

let prop_index_matches_hashtbl =
  let pick = QCheck.Gen.int_bound (Array.length index_pairs - 1) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (100, map2 (fun i v -> I_add (i, v)) pick small_nat);
          (60, map (fun i -> I_find i) pick);
          (60, map (fun i -> I_remove i) pick);
          (20, return I_cycle);
          (1, return I_fold);
          (1, map (fun r -> I_filter r) (int_bound 2));
          (1, return I_clear);
        ])
  in
  let print = function
    | I_add (i, v) -> Printf.sprintf "add %d %d" i v
    | I_find i -> Printf.sprintf "find %d" i
    | I_remove i -> Printf.sprintf "remove %d" i
    | I_cycle -> "cycle"
    | I_fold -> "fold"
    | I_filter r -> Printf.sprintf "filter %d" r
    | I_clear -> "clear"
  in
  QCheck.Test.make ~count:200 ~name:"index matches Hashtbl"
    (QCheck.make
       ~print:QCheck.Print.(list print)
       QCheck.Gen.(list_size (int_range 0 1200) op))
    (fun ops ->
      let index = Node_key.Index.create ~absent:(-1) 1 in
      let model = Hashtbl.create 16 in
      let agrees p =
        Node_key.Index.find index p
        = Option.value (Hashtbl.find_opt model p) ~default:(-1)
      in
      let held () = List.sort compare (List.of_seq (Hashtbl.to_seq model)) in
      let step = function
        | I_add (i, v) ->
            Node_key.Index.replace index index_pairs.(i) v;
            Hashtbl.replace model index_pairs.(i) v
        | I_find _ -> ()
        | I_remove i ->
            Node_key.Index.remove index index_pairs.(i);
            Hashtbl.remove model index_pairs.(i)
        | I_cycle ->
            let held = held () in
            List.iter (fun (p, _) -> Node_key.Index.remove index p) held;
            Hashtbl.reset model;
            if
              Node_key.Index.length index <> 0
              || not (Array.for_all agrees index_pairs)
            then QCheck.Test.fail_report "pairs left after removing all";
            List.iter
              (fun (p, v) ->
                Node_key.Index.replace index p (v + 1);
                Hashtbl.replace model p (v + 1))
              held
        | I_fold ->
            let folded =
              Node_key.Index.fold (fun p v acc -> (p, v) :: acc) index []
            in
            if List.sort compare folded <> held () then
              QCheck.Test.fail_report "fold differs from the held pairs"
        | I_filter r ->
            Node_key.Index.filter_inplace (fun _ v -> v mod 3 <> r) index;
            Hashtbl.filter_map_inplace
              (fun _ v -> if v mod 3 <> r then Some v else None)
              model
        | I_clear ->
            Node_key.Index.clear index;
            Hashtbl.reset model
      in
      List.for_all
        (fun op ->
          step op;
          Node_key.Index.length index = Hashtbl.length model
          &&
          match op with
          | I_add (i, _) | I_find i | I_remove i -> agrees index_pairs.(i)
          | I_filter _ | I_clear -> Array.for_all agrees index_pairs
          | I_cycle | I_fold -> true)
        ops
      && Array.for_all agrees index_pairs)

(* {1 Net dispatch} *)

let test_net_dispatch () =
  let rng = Rng.create ~seed:29 in
  List.iter
    (fun kind ->
      let net = Net.create ~rng ~kind ~n:32 () in
      Alcotest.(check int) "size" 32 (Net.size net);
      (match Net.check_invariants net with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      let key = Key.of_int 3 in
      let owner = Net.owner_of_key net key in
      Alcotest.(check bool) "owner owns" true
        (Net.next_hop net owner key = Route.Owner);
      List.iter
        (fun from ->
          match List.rev (hops (Net.route net ~from key)) with
          | [] -> Alcotest.(check bool) "self" true (Node_id.equal from owner)
          | last :: _ ->
              Alcotest.(check bool) "ends at owner" true
                (Node_id.equal last owner))
        (Net.node_ids net))
    [ Net.Can `Random; Net.Chord; Net.Pastry ]

(* [Net.owns] is the [Owner] answer of [Net.next_hop], for every node
   and key, on every overlay, and it is not a routing call. *)
let test_net_owns_is_owner_answer () =
  let rng = Rng.create ~seed:31 in
  List.iter
    (fun kind ->
      let net = Net.create ~rng ~kind ~n:24 () in
      let victim = List.nth (Net.node_ids net) 3 in
      ignore (Net.leave net victim);
      let _, misses = Net.route_cache_stats net in
      let owned = ref 0 in
      List.iter
        (fun id ->
          for k = 0 to 47 do
            let key = Key.of_int k in
            if Net.owns net id key then incr owned;
            Alcotest.(check bool)
              (Format.asprintf "%a k%d" Node_id.pp id k)
              (Net.next_hop net id key = Route.Owner)
              (Net.owns net id key)
          done)
        (victim :: Net.node_ids net);
      Alcotest.(check int) "each key has one owner" 48 !owned;
      let _, misses' = Net.route_cache_stats net in
      Alcotest.(check int) "only next_hop counts as a routing call"
        (misses + (48 * 24)) misses')
    [ Net.Can `Random; Net.Can `Grid; Net.Chord; Net.Pastry ]

let test_net_inspectors () =
  let rng = Rng.create ~seed:30 in
  let can = Net.create ~rng ~kind:(Net.Can `Grid) ~n:4 () in
  Alcotest.(check bool) "can is can" true (Net.as_can can <> None);
  Alcotest.(check bool) "can is not chord" true (Net.as_chord can = None);
  let ch = Net.create ~rng ~kind:Net.Chord ~n:4 () in
  Alcotest.(check bool) "chord is chord" true (Net.as_chord ch <> None);
  let pa = Net.create ~rng ~kind:Net.Pastry ~n:4 () in
  Alcotest.(check bool) "pastry is pastry" true (Net.as_pastry pa <> None);
  Alcotest.(check bool) "pastry is not can" true (Net.as_can pa = None)

(* {1 Typed routing failures (fault tolerance)} *)

(* Regression: a node leaving mid-route used to [failwith] out of the
   caller.  Both asking the dead node for its next hop and routing
   from it must now return a typed outcome, while live nodes reroute
   around the hole. *)
let test_mid_route_leave_is_typed () =
  let rng = Rng.create ~seed:91 in
  let t = T.create ~rng ~n:32 ~placement:`Random () in
  let key = Key.of_int 7 in
  let p = Key.to_point key in
  let from =
    List.find (fun id -> T.next_hop t id p <> Route.Owner) (T.node_ids t)
  in
  match T.next_hop t from p with
  | Route.Owner | Route.Stuck _ -> Alcotest.fail "expected a forwarding hop"
  | Route.Forward hop ->
      ignore (T.leave t hop);
      (match T.next_hop t hop p with
      | Route.Stuck Route.Dead_node -> ()
      | _ -> Alcotest.fail "dead hop should be Stuck Dead_node");
      (match T.route t ~from:hop p with
      | Route.Unreachable { reason = Route.Dead_node; partial = []; _ } -> ()
      | _ -> Alcotest.fail "route from the dead hop should be Unreachable");
      (match T.route t ~from p with
      | Route.Delivered _ -> ()
      | Route.Unreachable _ ->
          Alcotest.fail "live node should reroute around the hole")

let test_net_route_from_dead_node_typed () =
  let rng = Rng.create ~seed:92 in
  List.iter
    (fun kind ->
      let net = Net.create ~rng ~kind ~n:16 () in
      let victim = List.hd (Net.node_ids net) in
      ignore (Net.leave net victim);
      let key = Key.of_int 5 in
      (match Net.next_hop net victim key with
      | Route.Stuck Route.Dead_node -> ()
      | _ -> Alcotest.fail "expected Stuck Dead_node");
      (match Net.route net ~from:victim key with
      | Route.Unreachable { reason = Route.Dead_node; _ } -> ()
      | _ -> Alcotest.fail "expected Unreachable");
      (* live nodes still deliver *)
      List.iter
        (fun from ->
          match Net.route net ~from key with
          | Route.Delivered _ -> ()
          | Route.Unreachable _ -> Alcotest.fail "live route must deliver")
        (Net.node_ids net))
    [ Net.Can `Random; Net.Chord; Net.Pastry ]

(* A crash-then-recover cycle must bump the membership generation
   twice, so a cached next hop recorded before the crash can never be
   served after it (the cache is keyed to the generation). *)
let test_generation_bumps_across_crash_recover () =
  let rng = Rng.create ~seed:93 in
  List.iter
    (fun kind ->
      let net = Net.create ~rng ~route_cache:true ~kind ~n:16 () in
      let key = Key.of_int 11 in
      (* warm the cache *)
      List.iter (fun from -> ignore (Net.route net ~from key)) (Net.node_ids net);
      let g0 = Net.generation net in
      let victim = List.hd (Net.node_ids net) in
      ignore (Net.leave net victim);
      let g1 = Net.generation net in
      Alcotest.(check bool) "crash bumps generation" true (g1 > g0);
      ignore (Net.join_random net ~rng);
      let g2 = Net.generation net in
      Alcotest.(check bool) "recovery bumps generation again" true (g2 > g1);
      (* cached answers after the churn agree with an uncached overlay:
         no stale next hop survives the generation move *)
      List.iter
        (fun from ->
          match Net.route net ~from key with
          | Route.Delivered { hops; count } ->
              Alcotest.(check int) "carried count" (List.length hops) count;
              List.iter
                (fun h ->
                  Alcotest.(check bool) "hop is alive" true
                    (Net.is_alive net h))
                hops
          | Route.Unreachable _ -> Alcotest.fail "route must deliver")
        (Net.node_ids net))
    [ Net.Can `Random; Net.Chord; Net.Pastry ]

let () =
  Alcotest.run "cup_overlay"
    [
      ( "point",
        [
          Alcotest.test_case "wraps" `Quick test_point_wraps;
          Alcotest.test_case "axis distance" `Quick test_axis_distance;
          Alcotest.test_case "distance symmetric" `Quick
            test_point_distance_symmetric;
        ] );
      ( "zone",
        [
          Alcotest.test_case "make validates" `Quick test_zone_make_validates;
          Alcotest.test_case "contains half-open" `Quick
            test_zone_contains_half_open;
          Alcotest.test_case "split" `Quick test_zone_split_halves_longer_dim;
          Alcotest.test_case "adjacency" `Quick test_zone_adjacent_basic;
          Alcotest.test_case "adjacency across seam" `Quick
            test_zone_adjacent_across_seam;
          Alcotest.test_case "distance to point" `Quick
            test_zone_distance_to_point;
        ] );
      ( "key",
        [
          Alcotest.test_case "deterministic" `Quick
            test_key_point_deterministic;
          Alcotest.test_case "spread" `Quick test_key_points_spread;
          Alcotest.test_case "negative rejected" `Quick
            test_key_negative_rejected;
        ] );
      ( "topology",
        [
          Alcotest.test_case "single node" `Quick test_topo_single_node;
          Alcotest.test_case "grid build" `Quick test_topo_grid_build;
          Alcotest.test_case "random build" `Quick test_topo_random_build;
          Alcotest.test_case "random needs rng" `Quick
            test_topo_random_needs_rng;
          Alcotest.test_case "route reaches owner" `Quick
            test_topo_route_reaches_owner;
          Alcotest.test_case "next hop is neighbor" `Quick
            test_topo_next_hop_is_neighbor;
          Alcotest.test_case "join" `Quick test_topo_join_returns_change;
          Alcotest.test_case "leave" `Quick test_topo_leave_hands_over;
          Alcotest.test_case "leave last rejected" `Quick
            test_topo_leave_last_rejected;
          Alcotest.test_case "leave dead rejected" `Quick
            test_topo_leave_dead_rejected;
        ] );
      ( "topology properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_churn_preserves_invariants; prop_route_terminates ] );
      ( "routing",
        [
          QCheck_alcotest.to_alcotest prop_next_hop_matches_reference;
          Alcotest.test_case "next hop after takeover" `Quick
            test_next_hop_after_takeover;
          Alcotest.test_case "key point is Key.to_point" `Quick
            test_key_point_is_to_point;
        ] );
      ( "point location",
        [
          QCheck_alcotest.to_alcotest prop_tree_matches_scan;
          Alcotest.test_case "grid matches largest-zone rule" `Quick
            test_grid_matches_largest_zone_rule;
        ] );
      ( "chord",
        [
          Alcotest.test_case "single node" `Quick test_chord_single_node;
          Alcotest.test_case "builds" `Quick test_chord_even_and_random_build;
          Alcotest.test_case "ring order" `Quick test_chord_ring_order;
          Alcotest.test_case "route reaches owner" `Quick
            test_chord_route_reaches_owner;
          Alcotest.test_case "logarithmic paths" `Quick
            test_chord_path_length_logarithmic;
          Alcotest.test_case "neighbors symmetric" `Quick
            test_chord_neighbors_symmetric;
          Alcotest.test_case "join/leave" `Quick test_chord_join_leave;
          QCheck_alcotest.to_alcotest prop_chord_churn_invariants;
        ] );
      ( "pastry",
        [
          Alcotest.test_case "builds" `Quick test_pastry_builds;
          Alcotest.test_case "route reaches owner" `Quick
            test_pastry_route_reaches_owner;
          Alcotest.test_case "short paths" `Quick test_pastry_paths_short;
          Alcotest.test_case "owner closest" `Quick
            test_pastry_owner_is_numerically_closest;
          Alcotest.test_case "join/leave" `Quick test_pastry_join_leave;
          QCheck_alcotest.to_alcotest prop_pastry_churn_invariants;
        ] );
      ( "node key",
        [
          Alcotest.test_case "spread" `Quick test_node_key_spread;
          QCheck_alcotest.to_alcotest prop_node_key_inverts_pack;
          QCheck_alcotest.to_alcotest prop_index_matches_hashtbl;
        ] );
      ( "net",
        [
          Alcotest.test_case "dispatch" `Quick test_net_dispatch;
          Alcotest.test_case "inspectors" `Quick test_net_inspectors;
          Alcotest.test_case "owns is the Owner answer" `Quick
            test_net_owns_is_owner_answer;
        ] );
      ( "typed routing failures",
        [
          Alcotest.test_case "mid-route leave is typed" `Quick
            test_mid_route_leave_is_typed;
          Alcotest.test_case "route from dead node" `Quick
            test_net_route_from_dead_node_typed;
          Alcotest.test_case "generation bumps across crash/recover" `Quick
            test_generation_bumps_across_crash_recover;
        ] );
    ]
