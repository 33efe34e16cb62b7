(** Open-addressing table from span ids to a few int fields.

    Both observers look up one span id per protocol event: the
    auditor ({!Audit}) keeps the set of ids it has seen here, and the
    streaming analyzer ({!Analyzer.Streaming}) keeps each span's depth,
    child count and arena record.

    {!Cup_sim.Runner} hands out span ids from one counter, so the ids
    of a run are dense.  An id's home slot is its low bits plus a
    multiplicative hash of the bits above them.  Ids below the capacity
    therefore sit in their own slot, consecutive ids in consecutive
    slots, and ids that differ only above the low bits (a large
    power-of-two stride) are spread by the hash instead of sharing one
    probe chain.

    [0] marks an empty slot and cannot be stored; any other int can. *)

type t

val create : fields:int -> t
(** An empty table whose entries carry [fields] ints each. *)

val length : t -> int
(** Ids stored. *)

val find : t -> int -> int
(** The slot holding an id, or [-1].  A slot stays valid until the
    next {!add} of an id that was absent. *)

val add : t -> int -> int
(** The slot holding an id, adding the id with every field [0] if it
    was absent.  Raises [Invalid_argument] on [0]. *)

val get : t -> int -> int -> int
(** [get t slot i] reads field [i] of the entry in [slot]. *)

val set : t -> int -> int -> int -> unit
(** [set t slot i v] writes field [i] of the entry in [slot]. *)

val max_probe : t -> int
(** The longest probe sequence of any stored id, counting its home
    slot: [1] when every id sits in its home slot.  A check that a
    family of ids spreads over the table. *)
