(** Interest bit vectors (Section 2.3).

    One per cached key: records which neighbors want updates for the
    key.  Represented as the set of interested neighbor ids rather than
    a positional bit vector, so that the neighbor set can grow, shrink,
    and be remapped under churn (Section 2.9) without any repacking.

    The set is an immutable, exact-size array of ids in increasing
    order: a node has few interested neighbors per key, so a scan is as
    fast as any tree, reads allocate nothing, and two neighbors cost
    three words, where a [Node_id.Set] cost five per member plus a
    wrapper record.  With the flat entry arrays this took a cached
    {!Node_store} state from about 52 live words to about 32.  {!add},
    {!remove} and the churn patches return a new array and leave their
    argument unchanged, or return it as is when the set does not
    change.  The empty set is one shared array. *)

type t = private Cup_overlay.Node_id.t array
(** Increasing, without duplicates.  The representation is exposed for
    allocation-free iteration; build values only with the functions
    below. *)

val empty : t
val add : t -> Cup_overlay.Node_id.t -> t
val remove : t -> Cup_overlay.Node_id.t -> t
val mem : t -> Cup_overlay.Node_id.t -> bool

val is_empty : t -> bool
(** [true] if no neighbor is interested. *)

val cardinal : t -> int

val to_list : t -> Cup_overlay.Node_id.t list
(** Interested neighbor ids in increasing order (deterministic
    forwarding order). *)

val remap :
  t -> old_id:Cup_overlay.Node_id.t -> new_id:Cup_overlay.Node_id.t -> t
(** [remap t ~old_id ~new_id] makes the bit that pointed at [old_id]
    point at [new_id] — the bit-vector patch a node performs when a
    neighbor's zone is taken over by another node.  [t] itself when
    [old_id]'s bit is clear. *)

val filter : (Cup_overlay.Node_id.t -> bool) -> t -> t
(** The members that satisfy the predicate; [t] itself when all do. *)
