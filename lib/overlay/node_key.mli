(** A (node, key) pair packed into one int, and two tables keyed by it.

    CUP keeps its bookkeeping per (node, key) pair — interest bits, the
    pending-first flag, justification deadlines — and the overlay
    memoizes [next_hop] per pair.  Every such table keys on this
    packing, so only this module knows its layout.

    The table hashes with its own multiplicative mix.  The polymorphic
    [Hashtbl.hash] folds an int's high 32 bits onto its low 32, which
    maps a packed pair to about [key lxor (node lsr 1)]: a 1024-node by
    1024-key grid of pairs would share 2,048 hashes, and chains would
    grow with the run.  {!Index}, the protocol state's table, indexes
    by the same mix. *)

type t = private int

val pack : Node_id.t -> Key.t -> t
(** Both ids must be below 2{^30}. *)

val node : t -> Node_id.t
(** [node (pack n k) = n]. *)

val key : t -> Key.t
(** [key (pack n k) = k]. *)

module Table : Hashtbl.S with type key = t

(** An open-addressing map from packed pairs, for the protocol state's
    hot lookups: packed pairs in an [int array] and values in a parallel
    array, linear probing, tombstones for removed pairs, at most half
    the slots in use (tombstones counted), and power-of-two growth.  A
    lookup follows no pointer before it reaches the value and allocates
    nothing. *)
module Index : sig
  type pair := t
  type 'a t

  val create : absent:'a -> int -> 'a t
  (** [create ~absent n] holds [n] pairs before it first grows.
      [absent] is what {!find} returns for a pair the index does not
      hold; it also fills the slots that hold none, so a removed value
      is not retained. *)

  val length : 'a t -> int
  (** Pairs held. *)

  val find : 'a t -> pair -> 'a
  (** The pair's value, or [absent]. *)

  val replace : 'a t -> pair -> 'a -> unit
  (** Bind the pair, replacing any value it had. *)

  val remove : 'a t -> pair -> unit
  (** Unbind the pair; no-op if it is not held. *)
end
