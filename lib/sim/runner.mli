(** Execute a {!Scenario} and account its costs.

    The runner builds the CAN overlay, keeps every node's protocol
    state in one {!Cup_proto.Node_store}, registers each key at its
    authority, and drives the replica-lifecycle, query and fault
    workloads through the discrete-event engine.  Every protocol message
    crossing an overlay edge is charged one hop to the Section 3.1 cost
    model ({!Cup_metrics.Counters}).

    {b One wire.}  A handler's [Send_query], [Send_update] or
    [Send_clear_bit] action is the message, and every message, whoever
    sends it (a handler, a transport retry, a subscription-repair
    re-issue or the token-bucket drain), crosses the same transport: it
    is counted sent, draws its loss (then the partition check), its
    delay and its duplication, and each copy's delivery is scheduled in
    one place under its class's [deliver.*] engine label.  Query and
    clear-bit hops are charged at send, so a query or clear-bit lost on
    the wire still costs its hop; update hops are charged at delivery,
    where the receiver's pending flag classifies a first-time update.

    First-time updates are never dropped by reduced capacity (they
    carry query answers; a node that cannot propagate updates still
    answers queries, it merely degrades its dependents to standard
    caching).

    {b Fault injection.}  When the scenario carries a
    {!Scenario.crash_spec} or {!Scenario.loss_spec}, the runner
    additionally injects node crashes (non-graceful departures drawn
    from the dedicated ["crashes"] PRNG substream, optionally followed
    by replacement joins) and per-channel message loss (one Bernoulli
    draw per message from the ["loss"] substream, with the channel's
    drop rate a pure hash of the endpoints).  Queries lost on the wire
    or bounced off a crashed hop are re-routed by their sender with
    capped exponential backoff; lost updates are healed by the
    subscription repair machinery, which watches each subscriber's
    justification deadline and re-issues its interest up the repaired
    overlay path when updates stop flowing, degrading to
    expiration-based polling after repeated failures.  Routing
    non-convergence is typed ({!Cup_overlay.Route.t}) and counted
    ([unreachable] in {!Cup_metrics.Counters}) instead of raising.
    All fault draws happen in engine-event order, so a run is
    byte-identical across job counts for the same seed and fault
    spec.

    A node routes a query only when it pushes a query instance toward
    the key's authority (see {!Cup_proto.Node_store.handle_query}), so
    a fault-free run makes one routing call per query hop. *)

type result = {
  counters : Cup_metrics.Counters.t;
  node_stats : Cup_proto.Node_store.stats;  (** summed over all nodes *)
  queries_posted : int;
  replica_events : int;
  engine_events : int;
  wallclock : float;  (** host seconds the run took *)
  events_per_sec : float;
      (** [engine_events / wallclock]; [0.] when the wallclock rounded
          to zero — the simulator's throughput baseline *)
  tracked_updates : int;
      (** propagated (non-answering) updates registered for the
          Section 3.1 justification test *)
  justified_updates : int;
      (** of those, how many saw a query at the receiving node within
          their critical window *)
  profile : Cup_dess.Engine.profile option;
      (** engine probe data; [None] unless profiling was enabled on
          the live engine (see {!Cup_dess.Engine.enable_profiling}) *)
}

val run : Scenario.t -> result
(** Raises [Invalid_argument] when the scenario fails
    {!Scenario.validate}. *)

val export_counters : Cup_metrics.Counters.t -> Cup_metrics.Registry.t -> unit
(** Snapshot hop/query/fault/transport counters into a registry as the
    [cup_hops_total], [cup_queries_total], [cup_dropped_updates_total],
    [cup_faults_total] and [cup_transport_messages_total] families.
    Called on the attached registry at {!Live.finish}; exposed so a
    live scrape can inject the same snapshot into a registry copy and
    stay byte-identical with the file written at finish. *)

type queue_stats = {
  pending_events : int;  (** events in the engine heap right now *)
  queued_updates : int;
      (** updates across all Section 2.8 token-bucket channels; always
          [0] outside token-bucket capacity mode *)
  max_queue_depth : int;
      (** largest single node's total outgoing queue *)
}

(** {1 Lower-level access}

    [Live] exposes a constructed simulation before it runs, so tests
    and interactive examples can inspect protocol state mid-run. *)

module Live : sig
  type t

  val create : Scenario.t -> t
  val engine : t -> Cup_dess.Engine.t
  val scenario : t -> Scenario.t
  val network : t -> Cup_overlay.Net.t

  val queue_stats : t -> queue_stats
  (** Engine pending-event count and update-channel depth gauges in
      one read — the accessor behind [/health], {!Cup_obs.Timeseries}
      samples and the queue-depth report. *)

  val wallclock_elapsed : t -> float
  (** Host seconds since the live simulation was created. *)

  val queries_posted : t -> int
  (** Locally posted queries so far. *)

  val store : t -> Cup_proto.Node_store.t
  (** Every node's protocol state, in the run's one store: read a node's
      state by its id.  Its {!Cup_proto.Node_store.stats} are the whole
      run's, and a departed node holds no state there. *)

  val counters : t -> Cup_metrics.Counters.t
  val key_of_index : t -> int -> Cup_overlay.Key.t
  val authority_of : t -> Cup_overlay.Key.t -> Cup_overlay.Node_id.t

  val post_query :
    t -> node:Cup_overlay.Node_id.t -> key:Cup_overlay.Key.t -> unit
  (** Post a local client query at the engine's current time. *)

  val set_capacity : t -> Cup_overlay.Node_id.t -> float -> unit

  val run_until : t -> float -> unit
  (** Advance the simulation to the given virtual time. *)

  val finish : t -> result
  (** Run to completion and summarize. *)

  val node_join : t -> Cup_overlay.Node_id.t
  (** A fresh node joins at a random point; interest vectors and
      authority directories of affected nodes are patched per
      Section 2.9.  Returns the new node's id. *)

  val set_tracer : t -> (Trace.event -> unit) option -> unit
  (** Observe every protocol event (see {!Trace}); [None] detaches. *)

  val set_metrics : t -> Cup_metrics.Registry.t option -> unit
  (** Record latency histograms into the given registry as the run
      executes — per-miss query latency in hops
      ([cup_query_latency_hops]), update propagation latency per tree
      level ([cup_update_propagation_seconds{level="..."}]), and
      subscription-repair latency ([cup_repair_seconds]) — and
      snapshot the hop/fault counters into it at {!finish}.  Attaching
      a registry also turns on span-id allocation (see {!Trace}), so
      ids stay deterministic whether or not a tracer is attached too.
      [None] detaches. *)

  val metrics : t -> Cup_metrics.Registry.t option
  (** The registry attached with {!set_metrics}, if any. *)

  val set_attribution : t -> Cup_metrics.Attribution.t option -> unit
  (** Attribute every query, hit/miss, hop, and delivery to
      [(key, node, tree-level)] as the run executes (see
      {!Cup_metrics.Attribution}).  Detached ([None], the default) the
      delivery path pays a single branch and allocates nothing. *)

  val attribution : t -> Cup_metrics.Attribution.t option
  (** The attribution layer attached with {!set_attribution}, if any. *)

  val node_leave : ?graceful:bool -> t -> Cup_overlay.Node_id.t -> unit
  (** Departure with the taker absorbing the node's zone/range.
      [graceful] (default [true]) hands the authority directories
      over; [false] models a crash (Section 2.9's unplanned
      departure): the directories are lost and rebuilt at the new
      authority by the replicas' next keep-alives, while dependent
      caches simply expire as in standard caching.  Either way the
      node's protocol state is freed: node ids are never reused. *)

  val justification_backlog : t -> int
  (** Total number of justification deadlines currently held for the
      Section 3.1 accounting, summed over all (node, key) slots.
      Expired deadlines are swept when the next update for the same
      (node, key) arrives, so the backlog stays bounded even for pairs
      that receive updates but no queries.  O(1): kept as a running
      count. *)

  val check_invariants : t -> (unit, string) Stdlib.result
  (** Recounts what the runner keeps incrementally: the running
      {!justification_backlog} must equal a fold over the deadline
      table, and no departed node may hold protocol state or a
      deadline-table entry.  O(table size); for tests. *)
end
