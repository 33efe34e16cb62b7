(** One node's view of a {!Node_store}: the CUP node state machine
    (Sections 2.3–2.9) with the node argument fixed.

    The protocol state and every handler live in the store; a view only
    names the node.  {!create} gives the node a store of its own, which
    is what the protocol unit tests drive.  {!view} looks at one node of
    a shared store, the way [Runner.Live.node] exposes a running
    simulation.  The types are {!Node_store}'s, documented there. *)

type config = Node_store.config = {
  policy : Policy.t;
  replica_independent_cutoff : bool;
}

val default_config : config
(** Second-chance policy, replica-independent cut-off. *)

type source = Node_store.source =
  | From_neighbor of Cup_overlay.Node_id.t
  | From_local of Cup_dess.Time.t

type action = Node_store.action =
  | Send_query of { to_ : Cup_overlay.Node_id.t; key : Cup_overlay.Key.t }
  | Send_update of {
      to_ : Cup_overlay.Node_id.t;
      update : Update.t;
      answering : bool;
    }
  | Send_clear_bit of { to_ : Cup_overlay.Node_id.t; key : Cup_overlay.Key.t }
  | Answer_local of {
      key : Cup_overlay.Key.t;
      entries : Entry.t list;
      posted_at : Cup_dess.Time.t list;
      hit : bool;
    }

type stats = Node_store.stats = {
  mutable queries_in : int;
  mutable queries_coalesced : int;
  mutable cache_answers : int;
  mutable updates_in : int;
  mutable updates_forwarded : int;
  mutable clear_bits_sent : int;
  mutable clear_bits_in : int;
  mutable expired_updates_dropped : int;
}

type t

val create : id:Cup_overlay.Node_id.t -> config -> t
(** A node with a store of its own. *)

val view : Node_store.t -> Cup_overlay.Node_id.t -> t
(** The node's states inside a shared store. *)

val stats : t -> stats
(** The store's stats: this node's own under {!create}, every node's
    sum under {!view}. *)

(** {1 Protocol handlers} *)

val handle_query :
  t ->
  now:Cup_dess.Time.t ->
  next_hop:Cup_overlay.Node_id.t option ->
  source ->
  Cup_overlay.Key.t ->
  action list
(** {!Node_store.handle_query} with the routing decision made up
    front: [None] when the node's zone contains the key, [Some hop]
    for where a pushed query instance goes. *)

val handle_update :
  t ->
  now:Cup_dess.Time.t ->
  from:Cup_overlay.Node_id.t ->
  Update.t ->
  action list
(** {!Node_store.handle_update}. *)

val handle_clear_bit :
  t -> now:Cup_dess.Time.t -> from:Cup_overlay.Node_id.t -> Cup_overlay.Key.t -> action list
(** {!Node_store.handle_clear_bit}. *)

(** {1 Authority-side operations} *)

val add_local_key : t -> Cup_overlay.Key.t -> unit
val owns : t -> Cup_overlay.Key.t -> bool
val local_directory : t -> Cup_overlay.Key.t -> Entry.t list

val replica_birth :
  t -> now:Cup_dess.Time.t -> key:Cup_overlay.Key.t -> Entry.t -> action list

val replica_refresh :
  t -> now:Cup_dess.Time.t -> key:Cup_overlay.Key.t -> Entry.t -> action list

val replica_refresh_batch :
  t ->
  now:Cup_dess.Time.t ->
  key:Cup_overlay.Key.t ->
  Entry.t list ->
  action list

val replica_death :
  t ->
  now:Cup_dess.Time.t ->
  key:Cup_overlay.Key.t ->
  Replica_id.t ->
  action list

(** {1 Churn support} *)

val remap_neighbor :
  t -> old_id:Cup_overlay.Node_id.t -> new_id:Cup_overlay.Node_id.t -> unit

val drop_neighbor : t -> Cup_overlay.Node_id.t -> unit
val retain_neighbors : t -> Cup_overlay.Node_id.t list -> unit
val handover_local : t -> Cup_overlay.Key.t -> Entry.t list
val receive_local : t -> Cup_overlay.Key.t -> Entry.t list -> unit

(** {1 Introspection} *)

val fresh_entries : t -> now:Cup_dess.Time.t -> Cup_overlay.Key.t -> Entry.t list
val pending_first : t -> Cup_overlay.Key.t -> bool
val interested_neighbors : t -> Cup_overlay.Key.t -> Cup_overlay.Node_id.t list
val distance_of : t -> Cup_overlay.Key.t -> int option
val cached_keys : t -> Cup_overlay.Key.t list
val owned_keys : t -> Cup_overlay.Key.t list
