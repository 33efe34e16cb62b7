type kind = Can of [ `Random | `Grid ] | Chord | Pastry

type impl =
  | Can_net of Topology.t
  | Chord_net of Chord.t
  | Pastry_net of Pastry.t

(* [hop_cache], when [route_cache] asks for it, memoizes next_hop per
   [Node_key] pair and is flushed whenever the underlying overlay's
   generation counter moves (join/leave/churn).  The simulator leaves
   it off: it routes only queries that are forwarded, and a flat CAN
   [next_hop] costs little more than a table lookup. *)
type t = {
  impl : impl;
  cache_enabled : bool;
  hop_cache : Route.hop option Node_key.Index.t;
  mutable hop_gen : int; (* generation [hop_cache] entries belong to *)
  mutable cache_hits : int;
  mutable cache_misses : int;
}

type change = {
  subject : Node_id.t;
  peer : Node_id.t option;
  affected : Node_id.t list;
}

let create ?rng ?(route_cache = false) ~kind ~n () =
  let impl =
    match kind with
    | Can placement -> Can_net (Topology.create ?rng ~n ~placement ())
    | Chord -> Chord_net (Chord.create ?rng ~n ())
    | Pastry -> Pastry_net (Pastry.create ?rng ~n ())
  in
  {
    impl;
    cache_enabled = route_cache;
    hop_cache =
      Node_key.Index.create ~absent:None (if route_cache then 4096 else 1);
    hop_gen = -1;
    cache_hits = 0;
    cache_misses = 0;
  }

let size net =
  match net.impl with
  | Can_net t -> Topology.size t
  | Chord_net c -> Chord.size c
  | Pastry_net p -> Pastry.size p

let generation net =
  match net.impl with
  | Can_net t -> Topology.generation t
  | Chord_net c -> Chord.generation c
  | Pastry_net p -> Pastry.generation p

let node_ids net =
  match net.impl with
  | Can_net t -> Topology.node_ids t
  | Chord_net c -> Chord.node_ids c
  | Pastry_net p -> Pastry.node_ids p

let is_alive net id =
  match net.impl with
  | Can_net t -> Topology.is_alive t id
  | Chord_net c -> Chord.is_alive c id
  | Pastry_net p -> Pastry.is_alive p id

let neighbors net id =
  match net.impl with
  | Can_net t -> Topology.neighbors t id
  | Chord_net c -> Chord.neighbors c id
  | Pastry_net p -> Pastry.neighbors p id

let owner_of_key net key =
  match net.impl with
  | Can_net t -> Topology.owner_of_key t key
  | Chord_net c -> Chord.owner_of_key c key
  | Pastry_net p -> Pastry.owner_of_key p key

let owns net id key =
  match net.impl with
  | Can_net t -> Topology.owns t id (Topology.key_point t key)
  | Chord_net c -> Chord.owns c id key
  | Pastry_net p -> Pastry.owns p id key

let next_hop_uncached impl id key =
  match impl with
  | Can_net t -> Topology.next_hop t id (Topology.key_point t key)
  | Chord_net c -> Chord.next_hop c id key
  | Pastry_net p -> Pastry.next_hop p id key

let next_hop net id key =
  if not net.cache_enabled then begin
    net.cache_misses <- net.cache_misses + 1;
    next_hop_uncached net.impl id key
  end
  else begin
    let gen = generation net in
    if gen <> net.hop_gen then begin
      if Node_key.Index.length net.hop_cache > 0 then
        Node_key.Index.clear net.hop_cache;
      net.hop_gen <- gen
    end;
    let packed = Node_key.pack id key in
    match Node_key.Index.find net.hop_cache packed with
    | Some hop ->
        net.cache_hits <- net.cache_hits + 1;
        hop
    | None ->
        net.cache_misses <- net.cache_misses + 1;
        let hop = next_hop_uncached net.impl id key in
        Node_key.Index.replace net.hop_cache packed (Some hop);
        hop
  end

let route_cache_stats net = (net.cache_hits, net.cache_misses)

(* Same per-kind step budgets as the underlying [route]s use. *)
let route_limit net =
  match net.impl with
  | Can_net t -> (4 * Topology.size t) + 64
  | Chord_net c -> 128 + Chord.size c
  | Pastry_net p -> 16 + Pastry.size p

let route net ~from key =
  if not net.cache_enabled then begin
    match net.impl with
    | Can_net t -> Topology.route t ~from (Topology.key_point t key)
    | Chord_net c -> Chord.route c ~from key
    | Pastry_net p -> Pastry.route p ~from key
  end
  else
    (* Walk through the cached next_hop so every hop of every route
       warms — and benefits from — the cache. *)
    Route.walk ~limit:(route_limit net)
      ~next_hop:(fun current -> next_hop net current key)
      from

let of_can_change (c : Topology.change) =
  { subject = c.Topology.subject; peer = c.Topology.peer; affected = c.Topology.affected }

let of_chord_change (c : Chord.change) =
  { subject = c.Chord.subject; peer = c.Chord.peer; affected = c.Chord.affected }

let of_pastry_change (c : Pastry.change) =
  { subject = c.Pastry.subject; peer = c.Pastry.peer; affected = c.Pastry.affected }

let join_random net ~rng =
  match net.impl with
  | Can_net t -> of_can_change (Topology.join_random t ~rng)
  | Chord_net c -> of_chord_change (Chord.join_random c ~rng)
  | Pastry_net p -> of_pastry_change (Pastry.join_random p ~rng)

let leave net id =
  match net.impl with
  | Can_net t -> of_can_change (Topology.leave t id)
  | Chord_net c -> of_chord_change (Chord.leave c id)
  | Pastry_net p -> of_pastry_change (Pastry.leave p id)

let check_invariants net =
  match net.impl with
  | Can_net t -> Topology.check_invariants t
  | Chord_net c -> Chord.check_invariants c
  | Pastry_net p -> Pastry.check_invariants p

let as_can net =
  match net.impl with Can_net t -> Some t | Chord_net _ | Pastry_net _ -> None

let as_chord net =
  match net.impl with Chord_net c -> Some c | Can_net _ | Pastry_net _ -> None

let as_pastry net =
  match net.impl with Pastry_net p -> Some p | Can_net _ | Chord_net _ -> None
