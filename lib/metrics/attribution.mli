(** Per-key / per-node / per-level cost attribution.

    CUP's argument is economic: §3.1 prices every update in hops and
    asks whether propagating it to a given node for a given key is
    {e justified}.  The global {!Counters} answer that question only
    in aggregate; this module attributes every hop of miss cost,
    update overhead, and justified/unjustified delivery to the
    [(key, node, tree-level)] that incurred it — in bounded memory,
    deterministically.

    Three ingredients:

    {ol
    {- A space-saving (Misra–Gries family) top-K sketch per axis.
       Below capacity it degrades to exact counting (zero error, used
       by the byte-identity CI checks); at capacity it evicts the
       entry that reached the minimum weight earliest (the stream-
       summary FIFO rule), a deterministic function of the operation
       stream, so output is byte-identical across job counts.  {!Sketch.merge} is an {e exact} union-sum that
       never compacts — the merged table may exceed capacity (bounded
       by [shards × capacity], still independent of catalog size) —
       which makes it genuinely associative and commutative, the same
       contract {!Registry.merge} gives the parallel fan-out.}
    {- Windowed rate estimators per tracked key: integer event counts
       in a ring of fixed-width virtual-time windows.  Integer sums
       aligned by absolute window index merge exactly across shards;
       an EWMA is folded over the ring only at query time, so the
       stored state stays order-independent.  These are the λ, miss
       and overhead rates the §3.1 break-even formula consumes.}
    {- Recording entry points shaped for the simulator hot path: a
       detached attribution ([None] upstream) costs a single branch
       and zero allocations, and an attached one only packs the record
       into a bounded int buffer — the sketch and ring work is
       replayed in cache-resident batches, one axis at a time, when
       the buffer fills or a reader needs the state.  Replay order is
       append order, so every observable is byte-for-byte what
       unbuffered recording would produce.}} *)

(** Metric indices within an entry's count vector. *)
module Metric : sig
  val queries : int
  val hits : int
  val misses : int
  val miss_hops : int
  val overhead_hops : int
  val deliveries : int
  val justified : int
  val count : int
  (** Number of metrics (length of every count vector). *)

  val name : int -> string
  (** Short stable name, e.g. ["miss_hops"]. *)
end

(** Bounded-memory heavy-hitter sketch over integer ids with a
    per-entry metric vector. *)
module Sketch : sig
  type t

  val create : capacity:int -> t

  val add : t -> id:int -> metric:int -> w:int -> int
  (** Add weight [w] (> 0) of metric [metric] to [id].  Returns the id
      evicted to make room, or [-1] if none was (present, or below
      capacity).  Steady-state eviction reuses the entry record: no
      allocation. *)

  val entries : t -> int
  (** Live tracked ids (≤ capacity, except after {!merge}). *)

  val capacity : t -> int

  val evictions : t -> int
  (** Total evictions so far; [0] means every count is exact. *)

  val total : t -> metric:int -> int
  (** Exact global sum of [metric] over {e all} ids ever added,
      tracked outside the sketch (never lossy). *)

  val merge : t -> t -> t
  (** Exact union-sum: weights, error bounds, count vectors and totals
      add; no entry is dropped.  Associative and commutative; the
      result may hold more than [capacity] entries. *)

  type entry = {
    id : int;
    estimate : int;  (** stored weight; [estimate >= true count] *)
    err : int;  (** over-estimation bound; [estimate - err <= true] *)
    counts : int array;  (** per-metric increments, exact-since-entry *)
  }

  val top : t -> k:int -> entry list
  (** The [k] heaviest entries, sorted by [(estimate desc, id asc)].
      Count vectors are copies. *)
end

(** Windowed integer rate estimator over virtual time. *)
module Rate : sig
  type t

  val create : width:float -> slots:int -> t
  (** Ring of [slots] windows, each [width] virtual seconds wide. *)

  val observe : t -> now:float -> unit
  (** Count one event at virtual time [now] (non-decreasing within a
      stream; late events land in their own window if still retained,
      and are dropped deterministically otherwise). *)

  val merge : t -> t -> t
  (** Exact integer merge aligned by absolute window index — the
      result equals a single estimator fed the interleaved streams,
      regardless of shard layout. *)

  val windowed : t -> float
  (** Mean events/second over the retained full windows; [0.] before
      any observation. *)

  val ewma : ?alpha:float -> t -> float
  (** Exponentially weighted events/second, folded oldest→newest over
      the retained windows at call time ([alpha] defaults to 0.3).
      Stored state is unaffected. *)

  val observations : t -> int
  (** Events counted in the currently retained windows. *)
end

type t

type config = {
  capacity : int;  (** per-axis sketch capacity K (default 1024) *)
  rate_window : float;  (** rate ring window width, seconds (1.0) *)
  rate_slots : int;  (** rate ring length (32) *)
}

val default_config : config

val create : ?config:config -> unit -> t

val config : t -> config

(* Recording — called from the simulator delivery path.  [key], [node]
   and [level] are raw ints; [now] is virtual time. *)

val record_query : t -> key:int -> node:int -> now:float -> unit
val record_hit : t -> key:int -> node:int -> unit
val record_miss : t -> key:int -> node:int -> now:float -> unit

val record_query_hop : t -> key:int -> node:int -> unit
(** One query-forwarding hop (miss-cost side of §3.1; queries carry no
    tree level, so the level axis is untouched). *)

val record_update_hop :
  t -> key:int -> node:int -> level:int -> overhead:bool -> now:float -> unit
(** One update-delivery hop to [node] at tree [level].  [overhead]
    selects between the §3.1 ledgers: a first-time answer hop is miss
    cost, everything else (proactive, refresh, delete, append) is
    overhead. *)

val record_query_miss : t -> key:int -> node:int -> now:float -> unit
(** Fused {!record_query} + {!record_miss} for a local query that
    missed: credits both metrics in a single sketch probe per axis and
    observes both rate rings.  Totals and per-entry counts equal the
    unfused pair; at capacity the pair displaces one victim instead of
    two, so use it consistently on a given engine's hot path. *)

val record_update_delivered :
  t -> key:int -> node:int -> level:int -> overhead:bool -> now:float -> unit
(** Fused {!record_update_hop} + {!record_delivery} for the common
    delivered (non-answering) update hop, with the same contract as
    {!record_query_miss}. *)

val record_clear_bit_hop : t -> key:int -> node:int -> now:float -> unit
(** A non-piggybacked clear-bit message (overhead, no level). *)

val record_delivery : t -> key:int -> node:int -> unit
(** An update delivered and registered for justification judgement. *)

val record_justified : t -> key:int -> node:int -> unit
(** A delivered update later proven justified (query beat expiry). *)

(* Axes and reading. *)

type axis = Key | Node | Level

val axis_name : axis -> string
(** ["key"], ["node"] or ["level"]. *)

val axis_of_string : string -> axis option

val sketch : t -> axis -> Sketch.t

val top : t -> by:axis -> k:int -> Sketch.entry list

val total : t -> by:axis -> metric:int -> int
(** Exact global totals per axis.  Key and node axes see every event;
    the level axis only accumulates update-delivery hops. *)

val rates : t -> key:int -> (Rate.t * Rate.t * Rate.t) option
(** [(query, miss, overhead)] estimator snapshots for a currently
    tracked key, materialized at call time from the flat ring state.
    Rate state follows the key-axis sketch: evicting a key resets its
    rings, so memory stays O(capacity). *)

val merge : t -> t -> t
(** Exact merge of all three sketches and the per-key rate rings;
    associative and commutative.  Configs must agree on rate geometry. *)

val footprint_words : t -> int
(** Approximate heap words held by sketches and rate rings — O(K),
    independent of catalog size; used by the memory-bound bench. *)
