(** Propagation-tree reconstruction over recorded traces.

    Rebuilds the causal structure of a trace from the span links every
    protocol event carries (see {!Cup_sim.Trace}): one {!tree} per
    trace id, with depth, fan-out and the critical path from the root
    to the trace's latest event; plus exact query-latency percentiles
    recovered by replaying the post→answer matching the runner's
    counters perform, and a per-key activity table.

    Works on legacy id-less traces too — events whose span ids parse
    as [0] are excluded from tree reconstruction (counted in
    [legacy]) but still feed the latency and per-key accounting. *)

type tree = {
  trace_id : int;
  kind : string;  (** ["query"], ["update"], ["repair"] or ["mixed"] *)
  spans : int;
  depth : int;  (** longest root-to-leaf chain, roots at depth 1 *)
  max_fanout : int;  (** most children under one span *)
  start_at : float;  (** seconds *)
  end_at : float;
  critical_path : Cup_sim.Trace.event list Lazy.t;
      (** root → latest event of the trace, following parent links;
          decoded when forced, so a report pays only for the trees it
          prints *)
}

type key_stats = {
  mutable k_events : int;
  mutable k_queries : int;
  mutable k_hits : int;
  mutable k_misses : int;
  mutable k_updates : int;
  mutable k_lost : int;
  mutable k_repairs : int;
  mutable k_miss_latencies : float list;  (** seconds, sorted ascending *)
}

type summary = {
  events : int;
  membership : int;  (** crash/recover events (carry no span) *)
  legacy : int;  (** protocol events without span ids (legacy traces) *)
  by_type : (string * int) list;  (** sorted by type name *)
  traces : tree list;  (** sorted by trace id *)
  orphans : int;
      (** spans whose [parent_id] never appears as a span id anywhere
          in the trace — a broken causal link *)
  orphan_examples : (int * int) list;  (** (span_id, missing parent), ≤ 5 *)
  hits : int;
  misses : int;
  unanswered : int;  (** posted queries with no matching local answer *)
  miss_latencies : float array;  (** seconds, sorted ascending *)
  per_key : (int * key_stats) list;  (** sorted by key *)
}

(** Single-pass constant-per-event analysis: feed events in trace
    order, never holding the event list.  Span state lives in a
    {!Span_index} plus one binary-encoded event arena
    ({!Binary_codec}), per-key, per-trace and outstanding-query state in
    int-keyed tables, and latency samples in unboxed float vectors — a
    few dozen bytes per span and no O(events) list.  Orphan detection
    has whole-file scope (forward parent references are resolved
    retroactively) and percentiles are exact. *)
module Streaming : sig
  type t

  val create : unit -> t

  val feed : t -> Cup_sim.Trace.event -> unit
  (** Raises [Invalid_argument] after {!finish}. *)

  val finish : t -> summary
  (** Single-shot: raises [Invalid_argument] on a second call. *)
end

val percentile : float array -> float -> float
(** Exact nearest-rank percentile over a sorted sample array; [0.]
    when empty. *)

val mean_of : float array -> float

val pp_tree : Format.formatter -> tree -> unit

val pp_summary : ?max_traces:int -> Format.formatter -> summary -> unit
(** Full report: event counts, tree statistics, latency percentiles,
    per-key table, and the [max_traces] (default 5) largest traces
    with their critical paths. *)
