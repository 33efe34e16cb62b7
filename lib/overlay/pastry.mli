(** A Pastry-style prefix-routing overlay (Rowstron & Druschel,
    Middleware 2001) — the third substrate the paper names.

    Nodes carry 64-bit identifiers read as sixteen hexadecimal digits.
    Each node keeps a routing table (for each prefix length, the known
    node matching one more digit of a target) and a leaf set (the [l]
    numerically closest nodes on each side of its identifier).  A key
    is owned by the node numerically closest to its hash; routing
    forwards to a longer-prefix match when one exists and otherwise to
    a numerically closer node, so every hop makes strict progress.

    As with the other substrates, joins and leaves rebuild routing
    state from global knowledge — the simulator stands in for Pastry's
    join gossip, while the routing structure CUP sees is Pastry's. *)

type t

type change = {
  subject : Node_id.t;
  peer : Node_id.t option;
      (** previous/new owner of the subject's key neighborhood *)
  affected : Node_id.t list;
}

val create : ?rng:Cup_prng.Rng.t -> ?leaf_radius:int -> n:int -> unit -> t
(** [leaf_radius] is the leaf-set half-size [l] (default 4).  Without
    [rng], identifiers are evenly spaced.  Requires [n >= 1]. *)

val size : t -> int

val generation : t -> int
(** Membership generation: bumped on every join and leave.  Suitable as
    a cache-invalidation stamp. *)

val node_ids : t -> Node_id.t list
(** Alive node ids in increasing order.  Memoized per {!generation}. *)

val is_alive : t -> Node_id.t -> bool

val ident : t -> Node_id.t -> int64
(** The node's 64-bit Pastry identifier (unsigned). *)

val neighbors : t -> Node_id.t -> Node_id.t list
(** Routing-table entries, leaf set, and reverse edges. *)

val owner_of_key : t -> Key.t -> Node_id.t
(** The alive node numerically closest to the key's hash (ties break
    to the lower identifier). *)

val owns : t -> Node_id.t -> Key.t -> bool
(** Whether {!next_hop} answers [Owner]: the node is alive and
    numerically closest to the key's hash. *)

val next_hop : t -> Node_id.t -> Key.t -> Route.hop
(** [Owner] when this node is numerically closest to the key's hash;
    [Forward] per the Pastry rule (longer prefix, else numerically
    closer, else ring-step through the leaf set); [Stuck] — reported,
    not raised — for a dead node or when no known peer is closer. *)

val route : t -> from:Node_id.t -> Key.t -> Route.t
(** Successive hops to the owner; [Unreachable] (never an exception)
    if prefix routing fails to converge. *)

val join_random : t -> rng:Cup_prng.Rng.t -> change
val leave : t -> Node_id.t -> change
val check_invariants : t -> (unit, string) result
