(** A (node, key) pair packed into one int, and a hash table keyed by it.

    CUP keeps its bookkeeping per (node, key) pair — interest bits, the
    pending-first flag, justification deadlines — and the overlay
    memoizes [next_hop] per pair.  Every such table keys on this
    packing, so only this module knows its layout.

    The table hashes with its own multiplicative mix.  The polymorphic
    [Hashtbl.hash] folds an int's high 32 bits onto its low 32, which
    maps a packed pair to about [key lxor (node lsr 1)]: a 1024-node by
    1024-key grid of pairs would share 2,048 hashes, and chains would
    grow with the run. *)

type t = private int

val pack : Node_id.t -> Key.t -> t
(** Both ids must be below 2{^30}. *)

val node : t -> Node_id.t
(** [node (pack n k) = n]. *)

val key : t -> Key.t
(** [key (pack n k) = k]. *)

module Table : Hashtbl.S with type key = t
