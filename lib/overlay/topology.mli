(** The "bare-bones" CAN overlay.

    Nodes own rectangular zones that tile the 2-d unit torus.  A node
    normally owns one zone; after absorbing a departed neighbor's zone
    it may temporarily own several, exactly as in the CAN takeover
    rule.  Two nodes are neighbors when any of their zones abut on the
    torus.  Routing toward a point is greedy: forward to the neighbor
    whose region is closest to the point, stopping at the node whose
    region contains it.

    All mutation goes through {!join_random}, {!join_at} and {!leave},
    which return the set of nodes whose neighbor sets changed so the
    protocol layer can patch its per-neighbor bookkeeping (interest
    bit vectors, Section 2.9 of the paper).

    The zone-split history is kept as a binary space-partition tree
    whose leaves are the alive nodes' zones, so point location is one
    root-to-leaf walk, as in CAN itself. *)

type t

type change = {
  subject : Node_id.t;  (** the node that joined or left *)
  peer : Node_id.t option;
      (** on join: the node whose zone was split; on leave: the node
          that took over the zones (if any) *)
  affected : Node_id.t list;
      (** alive nodes whose neighbor set changed, including [peer] *)
}

val create : ?rng:Cup_prng.Rng.t -> n:int -> placement:[ `Random | `Grid ] -> unit -> t
(** [create ~n ~placement ()] bootstraps an overlay of [n] nodes.
    [`Random] joins each node at a uniformly random point (requires
    [rng]); [`Grid] repeatedly splits the largest zone (lowest owner id
    on ties), producing a regular grid when [n] is a power of two.
    Requires [n >= 1].  Every node joins through {!join_at}, so each
    join costs one {!owner_of_point} walk plus one pass over the split
    node's neighbors, and the build is O(n log n): expected for
    [`Random], exact for [`Grid]. *)

val size : t -> int
(** Number of alive nodes. *)

val generation : t -> int
(** Membership generation: bumped on every join and leave.  Suitable as
    a cache-invalidation stamp for anything derived from the current
    membership or neighbor structure. *)

val node_ids : t -> Node_id.t list
(** Alive node ids in increasing order.  Memoized per {!generation}. *)

val is_alive : t -> Node_id.t -> bool
(** One load from a per-id liveness map; no node record is read. *)

val neighbors : t -> Node_id.t -> Node_id.t list
(** Neighbor ids in increasing order.  Raises [Not_found] if the node
    is dead or unknown. *)

val zones_of : t -> Node_id.t -> Zone.t list

val owner_of_point : t -> Point.t -> Node_id.t
(** The alive node whose region contains the point (zones are
    half-open).  One walk down the zone-split tree, never a scan of the
    nodes: expected O(log n) steps after random joins, at most
    ⌈log₂ n⌉ right after a [`Grid] build; a leave adds no depth.
    Raises [Failure] for a point outside the unit square. *)

val key_point : t -> Key.t -> Point.t
(** [Key.to_point], kept per key index after its first use (for keys
    below 2{^20}), so routing a key does not hash it again. *)

val owner_of_key : t -> Key.t -> Node_id.t
(** [owner_of_point] of the key's hash — the key's authority node. *)

val owns : t -> Node_id.t -> Point.t -> bool
(** [owns t n p] is [true] exactly when {!next_hop}[ t n p] is [Owner]:
    [n] is alive and its region contains [p].  It looks at [n]'s own
    zones only, never at its neighbors. *)

val next_hop : t -> Node_id.t -> Point.t -> Route.hop
(** [next_hop t n p] is [Owner] when [n]'s region contains [p],
    otherwise [Forward] to the neighbor whose region is closest to [p]
    ({!Zone.distance_to_point}, least over the neighbor's zones; ties
    broken by lowest id).  [Stuck Dead_node] for a dead or unknown
    [n]; [Stuck No_progress] when [n] has no neighbors — impossible
    while the tiling invariant holds, but reported as data rather than
    raised so fault injection cannot abort a run.  One loop over flat
    arrays of neighbor ids and zone bounds; it loads no neighbor's node
    record and allocates only the answer. *)

val route : t -> from:Node_id.t -> Point.t -> Route.t
(** [Delivered hops]: successive hops from [from] (exclusive) to the
    owner of the point (inclusive); [Delivered \[\]] when [from] is the
    owner.  [Unreachable] when greedy forwarding fails to converge
    (dead origin, no progress, or step budget exhausted) — never
    raises. *)

val join_random : t -> rng:Cup_prng.Rng.t -> change
(** A new node joins at a uniformly random point: the zone containing
    the point splits, the new node takes the half containing it. *)

val join_at : t -> Point.t -> change
(** As {!join_random} with an explicit point.  One pass over the split
    node's previous neighbors, the only nodes whose neighbor sets can
    change: each is tested for adjacency once against the new node's
    half and once against the split node's remaining region, on the
    flat zone bounds, and its neighbor array is copied at most once.
    [affected] comes out in increasing order with no sort. *)

val leave : t -> Node_id.t -> change
(** Graceful departure: the neighbor owning the smallest region takes
    over the departing node's zones.  The taker's region only grows,
    so only the departing node's neighbors are tested against it, and
    [affected] is exactly those neighbors.  Raises [Invalid_argument]
    when asked to remove the last node or a dead node. *)

val check_invariants : t -> (unit, string) result
(** Full O(n^2) consistency check: zones tile the torus (volumes sum
    to 1), the zone-split tree's leaves are exactly the alive nodes'
    zones and each leaf's owner holds its zone, and the flat routing
    state matches the geometry: each node's slot in the node array
    holds it, the liveness map flags exactly the alive nodes, the
    bounds array holds each alive node's zones and nothing for any
    other id, and the neighbor arrays are empty for every other id
    and list exactly the alive nodes adjacent to their node, in
    increasing order, where adjacency is {!Zone.adjacent} over the
    zone lists, not the bounds {!join_at} and {!leave} test.  For
    tests. *)
