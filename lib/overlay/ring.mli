(** Arithmetic ring overlay for very large simulated networks.

    The membership-table overlays ({!Topology}, {!Chord}, {!Pastry})
    materialize per-node routing state — zones, finger tables, routing
    tables — which costs hundreds of bytes per node and makes a
    million-node network expensive before the first query is posted.
    This overlay stores {e nothing} per node: membership is the integer
    interval [\[0, n)], a key's authority is a hash of the key modulo
    [n], and routing is Chord-style greedy doubling computed from pure
    arithmetic on the ids.  O(1) memory for any [n], and every route
    converges in at most [log2 n] hops (each hop at least halves the
    clockwise distance to the target).

    Determinism: {!owner} is a stateless SplitMix64 finalizer hash and
    {!next_hop} is integer arithmetic, so routes are identical across
    platforms, runs, and shard partitionings — the property the sharded
    scale runner's byte-identity contract relies on.

    The trade-off versus the table-backed overlays is fidelity, not
    correctness: there is no churn (nodes never join or leave) and the
    hop metric is the idealized power-of-two progression rather than a
    measured topology.  The scale runner uses it to exercise the CUP
    protocol state machine at sizes the table overlays cannot reach. *)

type t

val create : n:int -> t
(** [create ~n] is a ring over nodes [0 .. n-1].  Raises
    [Invalid_argument] when [n <= 0]. *)

val size : t -> int

val owner : t -> int -> int
(** [owner t key] is the authority node for [key]: a uniform stateless
    hash of the key, modulo [n]. *)

val next_hop : t -> node:int -> target:int -> int option
(** Greedy clockwise routing: [None] when [node = target] (the query
    has arrived), otherwise [Some next] where [next] advances by the
    largest power of two not exceeding the clockwise distance to
    [target].  The distance at least halves every hop, so a route takes
    at most [ceil (log2 n)] hops. *)
