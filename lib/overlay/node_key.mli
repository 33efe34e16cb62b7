(** A (node, key) pair packed into one int, and the one map keyed by
    it.

    CUP keeps its bookkeeping per (node, key) pair — protocol state,
    justification deadlines, repair deadlines, the auditor's freshness
    cells — and the overlay can memoize [next_hop] per pair.  Every
    such map is an {!Index} over this packing, so only this module
    knows its layout.

    The index hashes with its own multiplicative mix.  The polymorphic
    [Hashtbl.hash] folds an int's high 32 bits onto its low 32, which
    maps a packed pair to about [key lxor (node lsr 1)]: a 1024-node by
    1024-key grid of pairs would share 2,048 hashes.  {!hash} is
    exposed for tests that build their own tables over it. *)

type t = private int

val pack : Node_id.t -> Key.t -> t
(** Both ids must be below 2{^30}. *)

val node : t -> Node_id.t
(** [node (pack n k) = n]. *)

val key : t -> Key.t
(** [key (pack n k) = k]. *)

val hash : t -> int
(** The mix {!Index} probes from.  Every bit of its low half depends on
    both the node and the key, so the pairs of one key, or of one
    node, spread over a table's slots. *)

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

  (** The iterations visit pairs in slot order, which depends on the
      hash and on the index's history.  Use them only for results that
      no order can change, such as sums and filters, so slot order
      never reaches an output.  [f] must not modify the index. *)

  val fold : (pair -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
  (** Fold over every held pair and its value. *)

  val filter_inplace : (pair -> 'a -> bool) -> 'a t -> unit
  (** Unbind every pair for which [f] returns [false]. *)

  val clear : 'a t -> unit
  (** Unbind every pair, keeping the capacity. *)
end
