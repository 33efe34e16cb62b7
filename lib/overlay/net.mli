(** Unified overlay interface.

    CUP runs over any structured overlay with deterministic
    key-rooted routing (Section 2.2); this module lets the protocol
    and simulation layers treat the CAN, Chord and Pastry substrates
    uniformly.  All operations dispatch to the underlying overlay. *)

type t

type kind =
  | Can of [ `Random | `Grid ]  (** 2-d CAN with the given placement *)
  | Chord  (** 64-bit Chord ring *)
  | Pastry  (** Pastry-style prefix routing with leaf sets *)

type change = {
  subject : Node_id.t;
  peer : Node_id.t option;
  affected : Node_id.t list;
}

val create :
  ?rng:Cup_prng.Rng.t ->
  ?route_cache:bool ->
  ?churn_lookups:int ->
  kind:kind ->
  n:int ->
  unit ->
  t
(** [Can `Random] and [Chord] require [rng] for placement ([Chord]
    falls back to evenly-spaced positions without it).

    [route_cache] (default [true]) enables the per-node next-hop
    cache: {!next_hop} and {!route} answers are memoized per
    (node, key) pair and invalidated wholesale whenever the overlay's
    {!generation} moves (any join, leave, or churn event).  Caching
    never changes any answer — overlay routing is a pure function of
    the membership — so runs are byte-identical with it on or off.

    [churn_lookups] (default [0] = off) adapts the cache to churn:
    when a generation is invalidated after serving fewer than this
    many lookups, the next generation is routed uncached (no refill
    cost) until it proves stable by surviving that many lookups.
    Speed-only, like [route_cache] itself. *)

val size : t -> int

val generation : t -> int
(** The underlying overlay's membership generation; bumped on every
    join and leave.  The next-hop cache is keyed to this stamp. *)

val route_cache_enabled : t -> bool

val route_cache_stats : t -> int * int
(** [(hits, misses)] of the next-hop cache over this net's lifetime.
    Bypassed and cache-disabled lookups count as misses.  Diagnostic
    only — deliberately outside the deterministic counter set. *)

val node_ids : t -> Node_id.t list
(** Alive node ids in increasing order; memoized per {!generation}. *)

val is_alive : t -> Node_id.t -> bool
val neighbors : t -> Node_id.t -> Node_id.t list
val owner_of_key : t -> Key.t -> Node_id.t

val next_hop : t -> Node_id.t -> Key.t -> Route.hop
(** [Owner] when the node's region/range contains the key; [Stuck]
    when no routing decision is possible (dead node, no closer peer).
    Never raises. *)

val route : t -> from:Node_id.t -> Key.t -> Route.t
(** Typed routing outcome ({!Route.t}); [Unreachable] instead of an
    exception when the lookup cannot converge. *)

val join_random : t -> rng:Cup_prng.Rng.t -> change
val leave : t -> Node_id.t -> change
val check_invariants : t -> (unit, string) result

val as_can : t -> Topology.t option
(** The underlying CAN topology, for CAN-specific inspection. *)

val as_chord : t -> Chord.t option
val as_pastry : t -> Pastry.t option
