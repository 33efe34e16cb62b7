(** Hop-cost accounting — the cost model of Section 3.1.

    Every message crossing an overlay edge costs one hop.  Hops are
    charged to one of two buckets:

    - {b miss cost}: query hops plus the hops of first-time updates
      that answer a pending query (the "D hops up, D hops down" of the
      paper's cost-per-query analysis);
    - {b overhead}: refresh/delete/append propagation hops, clear-bit
      hops, and first-time-update hops pushed proactively to
      interested neighbors that were not waiting on a query.

    Total cost is their sum.  In standard caching no updates or
    clear-bits flow, so total cost = miss cost, exactly as the paper
    notes.

    A {e miss} is a locally-posted query that could not be answered
    synchronously from a fresh cache entry (a first-time miss or a
    freshness miss); its latency runs from posting to answer
    delivery. *)

type t

val create : unit -> t

(** {1 Recording} *)

val record_query_hop : t -> unit
val record_first_time_hop : t -> answering:bool -> unit
(** [answering] is [true] when the receiving node had its
    Pending-First-Update flag set for the key — the hop is part of
    delivering an answer, hence miss cost; otherwise it is proactive
    propagation, hence overhead. *)

val record_update_hop : t -> [ `Refresh | `Delete | `Append ] -> unit
val record_clear_bit_hop : t -> unit
val record_hit : t -> unit
val record_miss : t -> hops:float -> unit
(** [hops] is the miss latency already expressed in overlay hops (the
    unit the paper reports): latency in seconds divided by the hop
    delay, or [0.] under a zero hop delay.  Branch-free: callers
    precompute the conversion factor once per run. *)

val record_dropped_update : t -> unit
(** An update suppressed by reduced outgoing capacity. *)

val record_lost_message : t -> unit
(** A message dropped in transit: wire loss or a crashed receiver. *)

val record_duplicate : t -> unit
(** The channel delivered an extra copy of a message (duplication
    injection).  The copy itself also goes through the transport
    recorders — this counts duplication events, it is not a
    conservation term. *)

val record_retry : t -> unit
(** A retransmission or re-issued interest after a loss/crash. *)

val record_repair : t -> unit
(** A broken propagation edge successfully healed: a re-routed message
    delivered, or a re-subscription that restored the update flow. *)

val record_unreachable : t -> unit
(** A lookup or repair abandoned: routing returned
    {!Cup_overlay.Route.Unreachable}, retransmissions were exhausted,
    or a subscription degraded to expiration-based polling. *)

(** {1 Transport conservation}

    Message-level accounting for the conservation identity

    {[ sent = delivered + transport_lost + in_flight ]}

    maintained invariantly: every recorder moves one message between
    exactly two terms.  Unlike {!record_lost_message} (a fault-model
    statistic), these count {e every} message handed to the simulated
    transport — queries, updates and clear-bits alike — so an auditor
    can detect a delivery path that drops messages without accounting
    for them ([in_flight] stuck nonzero after the engine drains). *)

val record_sent : t -> unit
(** A message handed to the transport ([sent]++, [in_flight]++). *)

val record_delivered : t -> unit
(** A message reached a live receiver ([delivered]++, [in_flight]--). *)

val record_transport_lost : t -> unit
(** A message dropped on the wire or addressed to a dead receiver
    ([transport_lost]++, [in_flight]--). *)

val expose_transport : t -> unit
(** Make {!pp} print the transport line.  Off by default so existing
    output shapes (and their byte-compare suites) are unchanged;
    turned on when a conservation check is live ([cup run --audit]). *)

val set_route_cache_stats : t -> hits:int -> misses:int -> unit
(** Copy the overlay's next-hop cache tally
    ({!Cup_overlay.Net.route_cache_stats}) into this counter set at run
    end.  The runner's net has no cache, so every routing call is a
    miss and the sum counts routing calls.  Never printed by {!pp} —
    the tally depends on how the net routes, not on the protocol's
    results — so it stays out of every deterministic surface and is
    read back only through {!route_cache_hits}/{!route_cache_misses}
    (benchmark reports, tests, diagnostics). *)

(** {1 Reading} *)

val query_hops : t -> int
val first_time_answer_hops : t -> int
val first_time_proactive_hops : t -> int
val refresh_hops : t -> int
val delete_hops : t -> int
val append_hops : t -> int
val clear_bit_hops : t -> int

val miss_cost : t -> int
val overhead_cost : t -> int
val total_cost : t -> int

val hits : t -> int
val misses : t -> int
val local_queries : t -> int
val dropped_updates : t -> int
val lost_messages : t -> int
val duplicated : t -> int
val retries : t -> int
val repairs : t -> int
val unreachable : t -> int
val sent : t -> int
val delivered : t -> int
val transport_lost : t -> int
val in_flight : t -> int
val route_cache_hits : t -> int
val route_cache_misses : t -> int

val miss_latency_hops : t -> Welford.t
(** Distribution of per-miss latencies, in hops. *)

val miss_latency_histogram : t -> Histogram.t
(** The same distribution with tail quantiles. *)

val miss_latency_percentile : t -> float -> float
(** [miss_latency_percentile t 0.99] is the p99 per-miss latency in
    hops (upper-bound estimate; see {!Histogram.quantile}). *)

val avg_miss_latency_hops : t -> float

val merge : t -> t -> t
(** Pointwise sum (latency distributions are combined). *)

val pp : Format.formatter -> t -> unit
