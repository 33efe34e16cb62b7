(** A Chord ring substrate (Stoica et al., SIGCOMM 2001).

    The paper notes CUP "can be used in the context of any of these
    systems" — CAN, Chord, Pastry, Tapestry.  This module provides the
    Chord instantiation: nodes sit at positions on a 64-bit identifier
    ring, a key is owned by the successor of its hash, and greedy
    routing forwards through finger tables (the [i]-th finger is the
    successor of [position + 2^i]).

    Like the CAN substrate, this is a simulator component: joins and
    leaves rebuild routing state from global knowledge instead of
    running Chord's stabilization gossip — the routing structure is
    exactly Chord's, which is what CUP's behaviour depends on.

    The neighbor relation reported to the protocol layer is
    symmetric: a node's neighbors are its fingers and predecessor plus
    every node pointing a finger at it, so interest bit vectors can be
    patched under churn exactly as in Section 2.9. *)

type t

type change = {
  subject : Node_id.t;  (** the node that joined or left *)
  peer : Node_id.t option;
      (** on join: the previous owner of the subject's key range; on
          leave: the successor that takes the departed range over *)
  affected : Node_id.t list;
      (** alive nodes whose neighbor set changed *)
}

val create : ?rng:Cup_prng.Rng.t -> n:int -> unit -> t
(** [create ~n ()] builds an [n]-node ring.  With [rng], positions are
    uniform random; without, they are evenly spaced (the deterministic
    analogue of the CAN grid placement).  Requires [n >= 1]. *)

val size : t -> int

val generation : t -> int
(** Membership generation: bumped on every join and leave.  Suitable as
    a cache-invalidation stamp. *)

val node_ids : t -> Node_id.t list
(** Alive node ids in increasing order.  Memoized per {!generation}. *)

val is_alive : t -> Node_id.t -> bool

val position : t -> Node_id.t -> int64
(** The node's ring identifier (unsigned). *)

val successor : t -> Node_id.t -> Node_id.t
(** Next alive node clockwise ([t] itself when alone). *)

val predecessor : t -> Node_id.t -> Node_id.t

val neighbors : t -> Node_id.t -> Node_id.t list
(** Fingers, predecessor, and reverse fingers; increasing id order. *)

val owner_of_key : t -> Key.t -> Node_id.t
(** The successor of the key's ring hash. *)

val owns : t -> Node_id.t -> Key.t -> bool
(** Whether {!next_hop} answers [Owner]: the node is alive and the key
    falls in its range. *)

val next_hop : t -> Node_id.t -> Key.t -> Route.hop
(** [Owner] when the node owns the key; otherwise [Forward] to the
    closest preceding finger (falling back to the successor), as in
    Chord's greedy lookup.  [Stuck Dead_node] for a dead or unknown
    node. *)

val route : t -> from:Node_id.t -> Key.t -> Route.t
(** Successive hops to the owner; [Unreachable] (never an exception)
    if lookup fails to converge. *)

val join_random : t -> rng:Cup_prng.Rng.t -> change
val leave : t -> Node_id.t -> change
(** Raises [Invalid_argument] for the last node or a dead node. *)

val check_invariants : t -> (unit, string) result
(** Ring ordering, finger correctness against the definition, neighbor
    symmetry, ownership partition. *)
