(** Conservative time-window synchronizer for sharded simulation.

    A single discrete-event run can be partitioned across shards when
    every cross-node message takes at least one fixed delay [d] (the
    lookahead, in conservative parallel-DES terms): quantize virtual
    time into windows of width [d], and a message {e emitted} during
    window [w] can only be {e delivered} in window [w + 1] or later.
    Then the state reached at the end of window [w] is independent of
    how nodes are partitioned into shards — each shard can process its
    own window-[w] events in isolation, and the shards exchange their
    emitted messages at the window barrier.

    This module is the exchange buffer for the case where every message
    is delivered exactly one window after it is emitted.

    {b Layout.}  A message is a packed int key
    [(dst lsl 32) lor (cls lsl 30) lor src] — destination node, a
    two-bit class, source node, each id below {!id_limit} — plus two
    int words, [arg] and [seq], and one ['a] slot.  They are stored
    column-wise in plain arrays, so sending or reading a message
    allocates nothing.  Each shard owns one outbox per destination
    shard, written while it processes a window, and one inbox, read
    while it processes the next; its sort orders a permutation of the
    inbox, in scratch arrays of its own.  Every array is reused from
    window to window and grows by doubling, so a run holds about as
    much as its busiest window.

    {b Who touches what.}  During a window, shard [s] calls {!send},
    {!sort_inbox} and the readers only with [~shard:s]: no two shards
    share an array, so shards may run on different domains.  Between
    windows, one coordinator calls {!exchange}.

    {b Order.}  {!exchange} fills each inbox with the messages
    addressed to its shard in shard order, then emission order — the
    order a loop posting every outbox in turn gives.  {!sort_inbox}
    orders an inbox by key with a stable sort, that is by
    (dst, cls, src), and messages with equal keys keep that order.
    When each source lives on one shard, its messages therefore come
    out in emission order: sorting on (dst, cls, src, per-source
    emission sequence) gives the same order, with no sequence number in
    the key.  [seq] is carried for the caller and never compared.

    Messages emitted in the last window (window [windows - 1]) have no
    window to be delivered in: {!exchange} counts them in {!dropped}
    and discards them.  The drop decision depends only on the emission
    window, never on the shard layout, so it preserves the
    byte-identity contract. *)

type 'a t

val create : shards:int -> windows:int -> 'a t
(** Raises [Invalid_argument] unless [shards >= 1] and [windows >= 1]. *)

val id_limit : int
(** [2^30]: node ids must be below it. *)

val send :
  'a t ->
  shard:int ->
  to_shard:int ->
  dst:int ->
  cls:int ->
  src:int ->
  arg:int ->
  seq:int ->
  'a ->
  unit
(** Append a message from shard [shard] to its outbox for [to_shard],
    the shard that owns [dst], for delivery in the next window.  Raises
    [Invalid_argument] unless [0 <= dst, src < id_limit] and
    [0 <= cls < 4]. *)

val exchange : 'a t -> window:int -> unit
(** The barrier after window [window]: empty every outbox into the
    inboxes for window [window + 1], in the order given above, or into
    {!dropped} if [window] is the last window.  What the inboxes held
    is discarded. *)

val sort_inbox : 'a t -> shard:int -> int
(** Order [shard]'s inbox by key and return its length [n].  The
    readers below then give its [i]th message, [0 <= i < n], in that
    order, until the next {!exchange}. *)

val key : 'a t -> shard:int -> int -> int
(** The packed key; comparing two keys as ints compares
    (dst, cls, src). *)

val arg : 'a t -> shard:int -> int -> int
val seq : 'a t -> shard:int -> int -> int
val obj : 'a t -> shard:int -> int -> 'a

val dst_of : int -> int
val cls_of : int -> int
val src_of : int -> int
(** The fields of a packed key. *)

val dropped : 'a t -> int
(** Messages discarded because they were emitted in the last window. *)
