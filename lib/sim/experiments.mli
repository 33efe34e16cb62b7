(** The paper's evaluation, experiment by experiment (Section 3).

    Each function runs the simulations for one table or figure and
    returns structured results.  {!print} runs the twelve experiments
    by name and renders them with [Cup_report] (tables, ASCII plots,
    CSV files); it is the one printer behind [cup exp].  [Scaled]
    keeps every run laptop-sized:
    256 nodes with query rates scaled by 256/1024 so per-node query
    densities match the paper's 1024-node runs.  [Full] uses the
    paper's scale (1024–4096 nodes, rates up to 1000 q/s).

    All experiments exercise a single key's CUP tree — reverse-
    engineering the paper's reported magnitudes (overhead ~6.7 k hops,
    push levels spanning 0–30 ≈ the 2^10 CAN diameter, hit counts at
    λ = 1) shows its workloads are per-key-tree workloads; see
    EXPERIMENTS.md.

    Every experiment takes an optional [?pool]
    ({!Cup_parallel.Pool.t}): its independent simulator runs then fan
    out across the pool's domains.  Each run owns its engine, topology
    and RNG, and {!Cup_parallel.Pool.map} merges results in input
    order, so results are byte-identical whatever the pool size —
    [?pool] changes wall-clock time and nothing else.  Omitting it (or
    passing a 1-job pool) runs sequentially as before. *)

type scale = Scaled | Full

val base_scenario : scale -> Scenario.t
(** The shared configuration: replica lifetime 300 s, 3000 s of
    querying, second-chance default policy, one key. *)

val rates : scale -> float list
(** Query rates λ: [\[0.25; 2.5; 25; 250\]] scaled,
    [\[1; 10; 100; 1000\]] full. *)

(** {1 Figures 3 and 4: cost versus push level} *)

type push_level_point = { level : int; total_cost : int; miss_cost : int }

type push_level_series = {
  rate : float;
  points : push_level_point list;
  optimal_level : int;  (** argmin of total cost *)
  optimal_total : int;
}

val push_level_sweep :
  ?pool:Cup_parallel.Pool.t ->
  ?levels:int list ->
  scale ->
  rate:float ->
  push_level_series

(** {1 Table 1: cut-off policies} *)

type policy_cell = { total : int; normalized : float }

type policy_row = {
  policy_label : string;
  cells : (float * policy_cell) list;  (** per query rate *)
}

val table1 :
  ?pool:Cup_parallel.Pool.t ->
  ?optimal:push_level_series list ->
  scale ->
  policy_row list
(** Rows: standard caching, linear and logarithmic policies across the
    paper's α values, second-chance, and the optimal push level (taken
    from [optimal] when provided — e.g. the Figure 3/4 sweeps — or
    from a fresh sweep otherwise). *)

(** {1 Table 2: varying the network size} *)

type size_row = {
  nodes : int;
  miss_cost_ratio : float;  (** CUP / standard caching *)
  cup_miss_latency : float;  (** one-way hops, as the paper reports *)
  std_miss_latency : float;
  saved_per_overhead : float;
}

val table2 : ?pool:Cup_parallel.Pool.t -> scale -> size_row list

(** {1 Table 3: multiple replicas per key} *)

type replica_row = {
  replicas : int;
  naive_miss_cost : int;
  naive_misses : int;
  indep_miss_cost : int;
  indep_misses : int;
  indep_total_cost : int;
}

val table3 : ?pool:Cup_parallel.Pool.t -> scale -> replica_row list

(** {1 Figures 5 and 6: reduced outgoing capacity} *)

type capacity_point = {
  capacity : float;
  up_and_down_total : int;
  once_down_total : int;
}

type capacity_series = {
  cap_rate : float;
  std_total : int;  (** the standard-caching horizontal reference *)
  cap_points : capacity_point list;
}

val capacity_sweep :
  ?pool:Cup_parallel.Pool.t ->
  ?capacities:float list ->
  scale ->
  rate:float ->
  capacity_series

(** {1 Ablations (beyond the paper's main line)} *)

type ordering_row = {
  ordering_label : string;
  ord_total : int;
  ord_miss : int;
  ord_misses : int;
}

val ablation_queue_ordering :
  ?pool:Cup_parallel.Pool.t -> scale -> ordering_row list
(** Section 2.8's queue re-ordering, measured under token-bucket
    capacity starvation: latency-first versus flash-crowd versus FIFO
    ordering of the outgoing update channels. *)

type dry_row = { dry_window : int; dry_total : int; dry_miss : int }

val ablation_log_based_window :
  ?pool:Cup_parallel.Pool.t -> scale -> dry_row list
(** Generalizing second-chance: cut after [n] consecutive dry updates,
    n = 1..5. *)

(** {1 Section 3.6 propagation-overhead techniques} *)

type technique_row = {
  technique_label : string;
  tech_total : int;
  tech_overhead : int;
  tech_miss : int;
  tech_misses : int;
  tech_justified_pct : float;
      (** percentage of propagated updates that were justified
          (Section 3.1): a query reached the receiving node within the
          update's critical window *)
}

val propagation_techniques :
  ?pool:Cup_parallel.Pool.t -> scale -> technique_row list
(** With many replicas per key, compare the baseline (every replica
    refresh propagated separately, as in Table 3) against the two
    techniques Section 3.6 proposes — aggregating refreshes into
    batched updates, and suppressing a sampled subset — plus
    piggy-backed clear-bits. *)

type justification_row = {
  j_policy : string;
  j_rate : float;
  j_justified_pct : float;
  j_tracked : int;
  j_saved_per_overhead : float;
}

val justification :
  ?pool:Cup_parallel.Pool.t -> scale -> justification_row list
(** The Section 3.1 cost-model check: the fraction of propagated
    updates that are justified, per policy and query rate, next to the
    realized saved-miss-per-overhead ratio.  The paper argues overhead
    is fully recovered when at least half the updates are justified. *)

(** {1 Overlay generality (Section 2.2)} *)

type overlay_row = {
  overlay_label : string;
  o_policy : string;
  o_total : int;
  o_miss : int;
  o_misses : int;
  o_latency : float;  (** one-way hops *)
}

val overlay_comparison :
  ?pool:Cup_parallel.Pool.t -> scale -> overlay_row list
(** CUP versus standard caching over both substrates — the 2-d CAN of
    the paper's evaluation and a Chord ring — under the same workload.
    CUP's benefits are a property of the query/update-channel design,
    not of any one routing geometry. *)

(** {1 Replication across seeds} *)

type replicated = {
  runs : int;
  total_mean : float;
  total_stddev : float;
  miss_mean : float;
  miss_stddev : float;
  misses_mean : float;
  misses_stddev : float;
  latency_mean : float;
  latency_stddev : float;
}

val replicate :
  ?pool:Cup_parallel.Pool.t -> Scenario.t -> runs:int -> replicated
(** Run the scenario [runs] times with seeds [seed, seed+1, ...] and
    report the mean and standard deviation of the headline metrics —
    for confidence intervals around any single-seed number.  Requires
    [runs >= 1]. *)

val replicate_metrics :
  ?pool:Cup_parallel.Pool.t ->
  Scenario.t ->
  runs:int ->
  replicated * Cup_metrics.Registry.t
(** Like {!replicate}, but each run also records into its own metrics
    registry ({!Runner.Live.set_metrics}); the per-run registries are
    merged in seed order with the exact deterministic
    {!Cup_metrics.Registry.merge}, so the combined exposition is
    byte-identical across job counts.  Behind
    [--metrics-out] with [--runs > 1]. *)

(** {1 Model versus simulation (Section 3.1)} *)

type model_row = {
  m_rate : float;
  m_fanout : int;  (** the authority's neighbor count in this topology *)
  measured_justified_pct : float;
  predicted_justified_pct : float;
}

val model_check : ?pool:Cup_parallel.Pool.t -> scale -> model_row list
(** Push updates only to the authority's direct neighbors
    ([Push_level 1]) and compare the measured fraction of justified
    updates with the closed-form [1 - exp (-L T)] of Section 3.1,
    where each neighbor's subtree carries ~1/fanout of the network
    query rate and [T] is the replica lifetime.  The measured number
    counts queries that reach the neighbor, a slight undercount of the
    model's "any query in the subtree" at high rates (fresh caches
    below absorb some queries). *)

(** {1 The twelve experiments, printed} *)

val names : string list
(** The paper experiments in run order: [fig3 fig4 table1 table2
    table3 fig5 fig6 ablations overlays techniques model
    justification]. *)

val print :
  ?pool:Cup_parallel.Pool.t ->
  ?csv_dir:string ->
  scale ->
  string list ->
  unit
(** [print scale selected] runs the experiments named in [selected]
    in {!names} order, each once, and prints to stdout each one's
    section banner, tables and (for the figures) ASCII plots.  Figure
    3 sweeps the two lowest rates, Figure 4 the two highest, Figure 5
    runs at the second rate and Figure 6 at the highest.  When fig3 or
    fig4 is named too, table1's optimal row reuses their sweeps and
    covers only their rates.  With [csv_dir] (created if missing),
    fig3-fig6 and table1-table3 also write their CSV files there, each
    announced by a ["(wrote PATH)"] line.  Raises [Invalid_argument]
    if [selected] names an experiment outside {!names}, and
    [Sys_error] if [csv_dir] cannot be created (before anything runs)
    or written. *)

val print_push_level :
  ?csv_dir:string -> log_y:bool -> title:string -> push_level_series list -> unit
(** The Figure 3/4 renderer: a table of total and miss cost per push
    level, one column pair per series, each series' optimal level, and
    an ASCII plot.  With [csv_dir], each series is also written to
    [push_level_RATE_qps.csv]. *)

val section : string -> unit
(** Print a section banner, as {!print} does before each experiment. *)
