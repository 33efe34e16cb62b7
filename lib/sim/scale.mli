(** Million-node CUP runs: batch-synchronous sharded simulation.

    {!Runner} drives the full-fidelity simulator — table-backed
    overlays, per-message engine events, churn, faults.  It completes a
    [10^6]-node run on CAN or Chord without churn, but a CAN one takes
    about a minute and 2.6 GB.  This module trades those features for scale: the overlay is the
    O(1)-memory arithmetic {!Cup_overlay.Ring}, node state lives in one
    {!Cup_proto.Node_store} per shard, and the event loop is
    {e batch-synchronous}: virtual time is quantized into windows of
    one hop delay, every message emitted in window [w] is delivered in
    window [w + 1] (the conservative lookahead of
    {!Cup_dess.Window_sync}), and all events inside a window are
    processed in one canonical order.

    {b Byte-identity across shard counts.}  Within a window, a shard
    processes exactly the events addressed to its own nodes in one
    canonical order — messages first, by (destination, message class,
    source, per-source emission sequence), then workload events by
    pre-generation index — and cross-shard effects are deferred to the
    next window.
    The global state at every window barrier is therefore independent
    of the partitioning, so {!summary} output and the optional trace
    are byte-identical for any [shards] value, including [1].  All
    run statistics are integers (miss latency is accumulated as a hop
    {e sum}), so no floating-point accumulation order can leak the
    shard layout.

    The message order comes from {!Cup_dess.Window_sync}'s stable sort
    on (destination, class, source): a source's messages reach each
    inbox in emission order, so the emission sequence never needs
    comparing.  It is counted, per source, only when a tracer is
    attached, for the [seq] field of trace records.

    The protocol logic itself is the real CUP state machine: queries
    route hop-by-hop toward the key's authority, interest bits are set
    from forwarded queries, answers return as first-time updates down
    the reverse paths, authorities refresh their replica directories on
    a deterministic per-key schedule, and the configured cut-off policy
    (second-chance, replica-independent) prunes unpopular branches. *)

type config = {
  seed : int;
  nodes : int;  (** at most [2^30], the exchange's id limit *)
  keys : int;  (** at most [2^30] *)
  replicas : int;  (** directory entries per key *)
  rate : float;  (** network-wide Poisson query rate, queries/second *)
  shards : int;  (** domains to partition the run across; 1 = sequential *)
  hop_delay : float;  (** seconds per overlay hop = window width *)
  lifetime : float;  (** entry lifetime; refresh period is half of it *)
  query_start : float;
  query_duration : float;
  drain : float;  (** extra windows after posting stops, for in-flight answers *)
  zipf : float;  (** key-popularity exponent; [0.] = uniform *)
  attribution : int;
      (** per-axis top-K capacity for {!Cup_metrics.Attribution};
          [0] (the default) detaches attribution entirely.  Each shard
          tracks its own sketches, merged in shard order at run end
          with the exact union-sum merge — in the exact regime (no
          evictions) the merged result is byte-identical across shard
          counts, and all attribution weights are integers, honoring
          the byte-identity contract above.  The sharded runner has no
          justification machinery, so the [justified] metric stays 0
          here; [deliveries] counts non-answering update deliveries. *)
}

val default : config
(** 10k nodes, 512 keys, 2 replicas, 2000 q/s for 10 s, one shard. *)

(** Integer run statistics (see the byte-identity note above). *)
type totals = {
  mutable posts : int;
  mutable hits : int;  (** posts answered synchronously from fresh state *)
  mutable misses : int;
  mutable answered : int;  (** misses answered by a first-time update *)
  mutable latency_hops : int;  (** summed miss latency, in hops *)
  mutable query_hops : int;
  mutable ft_answer_hops : int;
  mutable ft_proactive_hops : int;
  mutable refresh_hops : int;
  mutable delete_hops : int;
  mutable append_hops : int;
  mutable clear_hops : int;
  mutable deliveries : int;  (** messages delivered *)
  mutable refreshes : int;  (** authority refresh-batch events *)
}

type result = {
  config : config;
  totals : totals;
  windows : int;
  events : int;  (** deliveries + posts + refreshes *)
  live_slots : int;  (** allocated (node, key) state slots at run end *)
  dropped_at_horizon : int;  (** messages emitted in the final window *)
  wallclock : float;
  events_per_sec : float;
  attribution : Cup_metrics.Attribution.t option;
      (** merged per-key/per-node/per-level cost attribution, present
          iff [config.attribution > 0] *)
}

(** One processed event, as handed to the tracer.  [w] is the window,
    [out] the number of messages the event emitted; message records
    carry destination, source and the per-source emission sequence,
    counted from 0 for each source in emission order. *)
type trace_body =
  | B_query of int  (** key *)
  | B_update of {
      key : int;
      kind : Cup_proto.Update.kind;
      level : int;
      answering : bool;
    }
  | B_clear of int  (** key *)

type trace_event =
  | T_msg of {
      w : int;
      dst : int;
      src : int;
      seq : int;
      body : trace_body;
      out : int;
    }
  | T_refresh of { w : int; key : int; idx : int; out : int }
  | T_post of { w : int; node : int; key : int; idx : int; out : int }

val trace_line : trace_event -> string
(** Canonical JSONL rendering of a trace record — the exact byte
    format [--trace-out FILE.jsonl] writes (no trailing newline). *)

val run : ?tracer:(trace_event -> unit) -> config -> result
(** Execute the run.  [tracer], when given, receives one record per
    processed event, in the canonical order — and therefore, rendered
    through {!trace_line} or any deterministic codec, byte-identical
    across shard counts.  Raises [Invalid_argument] on a malformed
    config. *)

val summary : result -> string
(** The deterministic result block: configuration echo (excluding
    [shards]), query/hop/cost totals and miss latency.  Byte-identical
    across shard counts; contains no wall-clock or host-dependent
    data. *)
