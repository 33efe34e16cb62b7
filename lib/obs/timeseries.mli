(** In-run time-series sampling.

    The paper's flash-crowd / capacity-loss / churn figures plot cost
    {e per interval over time}; a single end-of-run summary cannot
    show them.  [Timeseries.attach] schedules a sampler inside the
    live simulation's event engine that, every [interval] virtual
    seconds until the scenario's end, snapshots the
    {!Cup_metrics.Counters} deltas since the previous sample together
    with instantaneous engine gauges (pending events, token-bucket
    queue depths).

    Sampling is pure observation: it reads counters and queue lengths,
    never mutates protocol state, and uses no randomness — a sampled
    run's protocol trajectory is byte-identical to an unsampled one,
    and the samples themselves are deterministic per seed. *)

type sample = {
  at : float;  (** virtual time of the snapshot, in seconds *)
  total_cost : int;  (** hops charged during this interval *)
  miss_cost : int;
  overhead_cost : int;
  hits : int;
  misses : int;
  dropped_updates : int;
  pending_events : int;  (** engine events queued at the instant *)
  queued_updates : int;  (** updates in all Section 2.8 channels *)
  max_queue_depth : int;  (** deepest single node's channel *)
}

type t

val attach : ?interval:float -> Cup_sim.Runner.Live.t -> t
(** Schedule sampling every [interval] virtual seconds (default 10.),
    from the next multiple of [interval] after the current virtual
    time through {!Cup_sim.Scenario.sim_end}.  Attach before running.
    Raises [Invalid_argument] unless [interval] is finite and
    [> 0.]. *)

val interval : t -> float

val samples : t -> sample list
(** Chronological; one element per elapsed interval so far. *)

(** {1 Export} *)

val csv_header : string list

val csv_rows : t -> string list list

val write_csv : t -> path:string -> unit
(** {!Cup_report.Csv} file with {!csv_header} and one row per
    sample. *)

val cost_plot : ?width:int -> ?height:int -> t -> string
(** ASCII cost-vs-time figure ({!Cup_report.Plot}): total, miss, and
    overhead hops per interval. *)
