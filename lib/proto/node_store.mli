(** The CUP node state machine (Sections 2.3–2.9), for every node at
    once.

    A store is pure protocol state: it consumes protocol inputs
    (queries, updates, clear-bits, replica events at the authority) for
    a given node and returns the list of {!action}s that node performs.
    It never performs I/O and knows nothing about time sources or
    message delays — the simulation layer (or a real transport)
    executes the actions and invokes the handlers.  This keeps every
    protocol rule directly unit-testable; {!Node} is the one-node view
    the unit tests drive.

    Per neighbor there are two logical channels: handlers that emit
    [Send_query] use the query channel (upstream, toward the
    authority); [Send_update] and [Send_clear_bit] use the update
    channel (downstream, along reverse query paths) — clear-bits
    travel on it in the reverse direction, as in Figure 1 of the
    paper.

    State per cached key (Section 2.3): the cached entry set, the
    Pending-First-Update flag, the interest bit vector, the popularity
    measure (queries since last update), the dry-update streak for
    log-based policies, the hop distance from the authority, and the
    cut-off trigger replica (Section 3.6).

    Layout: one record per (node, key) state, every node's records in
    one hash table keyed by the packed (node, key) pair (authority
    states in a second one), and each node's records chained together
    for the churn patches.  There is no table per node, so a
    million-node run pays only for the pairs that hold state. *)

type config = {
  policy : Policy.t;
  replica_independent_cutoff : bool;
      (** evaluate (and reset) the cut-off popularity measure only on
          updates for the key's trigger replica, so the decision is
          independent of the number of replicas (Section 3.6).  When
          [false], the naive implementation: every update arrival
          triggers the decision. *)
}

val default_config : config
(** Second-chance policy, replica-independent cut-off. *)

type source =
  | From_neighbor of Cup_overlay.Node_id.t
  | From_local of Cup_dess.Time.t  (** a local client; payload = post time *)

type action =
  | Send_query of { to_ : Cup_overlay.Node_id.t; key : Cup_overlay.Key.t }
  | Send_update of {
      to_ : Cup_overlay.Node_id.t;
      update : Update.t;
      answering : bool;
          (** [true] when this first-time update answers a query the
              recipient is waiting on (miss-cost hop in the Section 3.1
              accounting); [false] for proactive propagation *)
    }
  | Send_clear_bit of { to_ : Cup_overlay.Node_id.t; key : Cup_overlay.Key.t }
  | Answer_local of {
      key : Cup_overlay.Key.t;
      entries : Entry.t list;
      posted_at : Cup_dess.Time.t list;
          (** post times of the local queries being answered *)
      hit : bool;
          (** [true] when served synchronously from a fresh cache or
              the local directory; [false] when the answer arrived by
              first-time update *)
    }

type stats = {
  mutable queries_in : int;
  mutable queries_coalesced : int;
      (** queries absorbed by an already-pending flag (Section 2.5
          case 3 / the burst-coalescing benefit) *)
  mutable cache_answers : int;  (** queries served from fresh cache *)
  mutable updates_in : int;
  mutable updates_forwarded : int;
  mutable clear_bits_sent : int;
  mutable clear_bits_in : int;
  mutable expired_updates_dropped : int;
}

type t

val create : ?nodes:int -> config -> t
(** [nodes] pre-sizes the store for node ids below it; larger ids grow
    it on demand. *)

val stats : t -> stats
(** Summed over every node in the store, updated in place as the
    handlers run. *)

val live_slots : t -> int
(** (node, key) states currently held, cached and authority, for
    capacity telemetry. *)

val nodes : t -> Cup_overlay.Node_id.t list
(** Nodes holding at least one state, in increasing order. *)

val remove_node : t -> Cup_overlay.Node_id.t -> unit
(** Drop every state of a node that has left the overlay for good. *)

(** {1 Protocol handlers} *)

val handle_query :
  t ->
  node:Cup_overlay.Node_id.t ->
  now:Cup_dess.Time.t ->
  owner:bool ->
  route:(Cup_overlay.Node_id.t -> Cup_overlay.Key.t -> Cup_overlay.Route.hop) ->
  source ->
  Cup_overlay.Key.t ->
  action list
(** Section 2.5.  [owner] says whether this node's zone contains the
    key; then the node answers as authority, with an empty entry set
    if it has no directory entries for the key.  Otherwise a node with
    fresh cached entries answers from them, and a node with a query
    instance already pending coalesces the query into it.  Only a node
    that pushes a query instance toward the authority needs a routing
    decision: it calls [route node key] exactly once, before the query
    changes any state, and sends to the [Forward] hop.  Any other
    answer makes the query unroutable: the handler returns [[]] and
    leaves every state and {!stats} as they were, so the caller, whose
    [route] saw the failure, can count it. *)

val handle_update :
  t ->
  node:Cup_overlay.Node_id.t ->
  now:Cup_dess.Time.t ->
  from:Cup_overlay.Node_id.t ->
  Update.t ->
  action list
(** Section 2.6. *)

val handle_clear_bit :
  t ->
  node:Cup_overlay.Node_id.t ->
  now:Cup_dess.Time.t ->
  from:Cup_overlay.Node_id.t ->
  Cup_overlay.Key.t ->
  action list
(** Section 2.7. *)

(** {1 Authority-side operations (Section 2.4 update origination)} *)

val add_local_key : t -> Cup_overlay.Node_id.t -> Cup_overlay.Key.t -> unit
(** Declare the node the authority for the key with an empty
    directory. *)

val owns : t -> Cup_overlay.Node_id.t -> Cup_overlay.Key.t -> bool

val local_directory :
  t -> Cup_overlay.Node_id.t -> Cup_overlay.Key.t -> Entry.t list
(** Current directory entries (unpruned) for an owned key; [\[\]] if
    not owned. *)

val replica_birth :
  t ->
  node:Cup_overlay.Node_id.t ->
  now:Cup_dess.Time.t ->
  key:Cup_overlay.Key.t ->
  Entry.t ->
  action list
(** A replica announced it serves [key]: add it to the directory and
    originate an Append. *)

val replica_refresh :
  t ->
  node:Cup_overlay.Node_id.t ->
  now:Cup_dess.Time.t ->
  key:Cup_overlay.Key.t ->
  Entry.t ->
  action list
(** A replica keep-alive extended its entry: originate a Refresh. *)

val replica_refresh_batch :
  t ->
  node:Cup_overlay.Node_id.t ->
  now:Cup_dess.Time.t ->
  key:Cup_overlay.Key.t ->
  Entry.t list ->
  action list
(** Aggregated refreshes (Section 3.6): apply several replicas'
    keep-alives to the directory and originate them as a single
    Refresh update carrying all the entries.  Empty input is a no-op. *)

val replica_death :
  t ->
  node:Cup_overlay.Node_id.t ->
  now:Cup_dess.Time.t ->
  key:Cup_overlay.Key.t ->
  Replica_id.t ->
  action list
(** The replica left (or missed its keep-alives): drop the entry and
    originate a Delete. *)

(** {1 Churn support (Section 2.9)} *)

val remap_neighbor :
  t ->
  node:Cup_overlay.Node_id.t ->
  old_id:Cup_overlay.Node_id.t ->
  new_id:Cup_overlay.Node_id.t ->
  unit
(** Patch every interest bit vector of the node: the bit that pointed
    at [old_id] now points at [new_id]. *)

val drop_neighbor :
  t -> node:Cup_overlay.Node_id.t -> Cup_overlay.Node_id.t -> unit
(** Clear the departed neighbor's bit in every vector of the node. *)

val retain_neighbors :
  t -> node:Cup_overlay.Node_id.t -> Cup_overlay.Node_id.t list -> unit
(** Clear every interest bit that does not point at one of the given
    (current) neighbors — the conservative patch applied when a node's
    neighborhood changes shape under churn. *)

val handover_local :
  t -> Cup_overlay.Node_id.t -> Cup_overlay.Key.t -> Entry.t list
(** Remove and return the directory entries for an owned key (for
    handing the key over to the node taking over the zone). *)

val receive_local :
  t -> Cup_overlay.Node_id.t -> Cup_overlay.Key.t -> Entry.t list -> unit
(** Accept directory entries for a newly owned key, merging with any
    existing ones (keeping the later expiry per replica). *)

(** {1 Introspection (tests and metrics)} *)

val fresh_entries :
  t ->
  node:Cup_overlay.Node_id.t ->
  now:Cup_dess.Time.t ->
  Cup_overlay.Key.t ->
  Entry.t list

val pending_first : t -> Cup_overlay.Node_id.t -> Cup_overlay.Key.t -> bool

val interested_neighbors :
  t -> Cup_overlay.Node_id.t -> Cup_overlay.Key.t -> Cup_overlay.Node_id.t list

val distance_of : t -> Cup_overlay.Node_id.t -> Cup_overlay.Key.t -> int option
(** Hop distance from the key's authority, once learned. *)

val cached_keys : t -> Cup_overlay.Node_id.t -> Cup_overlay.Key.t list
val owned_keys : t -> Cup_overlay.Node_id.t -> Cup_overlay.Key.t list
