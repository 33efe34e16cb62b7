(** The paper's evaluation (Section 3) as data over one grid runner.

    Every experiment is one single-key scenario swept over a few axes:
    a {!grid} is a base scenario, named axes of labelled scenario
    overrides and named metrics.  An {!experiment} is a name, a section
    title, its named grids and a renderer over their cells (tables,
    ASCII plots and CSV files through [Cup_report]).  {!print} runs the
    twelve by name; it is the one printer behind [cup exp].  [Scaled]
    keeps every run laptop-sized: 256 nodes with query rates scaled by
    256/1024 so per-node query densities match the paper's 1024-node
    runs.  [Full] uses the paper's scale (1024–4096 nodes, rates up to
    1000 q/s).

    All experiments exercise a single key's CUP tree — reverse-
    engineering the paper's reported magnitudes (overhead ~6.7 k hops,
    push levels spanning 0–30 ≈ the 2^10 CAN diameter, hit counts at
    λ = 1) shows its workloads are per-key-tree workloads; see
    EXPERIMENTS.md. *)

type scale = Scaled | Full

val base_scenario : scale -> Scenario.t
(** The shared configuration: replica lifetime 300 s, 3000 s of
    querying, second-chance default policy, one key. *)

val rates : scale -> float list
(** Query rates λ: [\[0.25; 2.5; 25; 250\]] scaled,
    [\[1; 10; 100; 1000\]] full. *)

(** {1 Grids} *)

type axis = string * (string * (Scenario.t -> Scenario.t)) list
(** A named axis: its points as labelled overrides of the scenario. *)

type metric = string * (Runner.Live.t -> Runner.result -> float)
(** A named reading of a finished run. *)

type grid = { base : Scenario.t; axes : axis list; metrics : metric list }

type cell = { labels : string list; values : (string * float) list }
(** One run: its label on each axis, in axis order, and each metric's
    value, in metric order. *)

val axis :
  string ->
  ('a -> string) ->
  (Scenario.t -> 'a -> Scenario.t) ->
  'a list ->
  axis
(** [axis name label set xs]: one point per [x], labelled [label x],
    that overrides the scenario with [set cfg x]. *)

val run_grid : ?pool:Cup_parallel.Pool.t -> grid -> cell list
(** One run per point of the axes' cross product, first axis
    outermost; a point applies its overrides to [base] in axis order.
    Each run is {!Runner.Live.create} then {!Runner.Live.finish}, as
    {!Runner.run}, and its metrics are read from both.  With [pool]
    the runs fan out across the pool's domains; each owns its engine,
    topology and RNG, and {!Cup_parallel.Pool.map} merges in input
    order, so the cells are byte-identical whatever the pool size. *)

val value : string -> cell -> float
(** The named metric's value. *)

(** {1 The twelve experiments} *)

type experiment = {
  name : string;
  title : string;  (** the section banner *)
  grids : scale -> (string * grid) list;
      (** A name stands for one grid: within a {!print} call each runs
          once, so table1 reads fig3's and fig4's push-level grids. *)
  render : scale -> csv_dir:string option -> (string -> cell list) -> unit;
      (** Tables and plots from the named grids' cells, and CSV files
          in [csv_dir] announced by ["(wrote PATH)"] lines. *)
}

val fig3 : experiment
(** Total and miss cost per push level at the two lowest rates. *)

val fig4 : experiment
(** The same at the two highest rates, on a log y axis. *)

val table1 : experiment
(** Total cost per cut-off policy and rate, normalized by standard
    caching at that rate.  Rows: standard caching, linear and
    logarithmic policies across the paper's α values, second-chance,
    and the optimal push level at every rate. *)

val table2 : experiment
(** CUP against standard caching on 8 up to 1,024 (full: 4,096) nodes. *)

val table3 : experiment
(** Naive against replica-independent cut-off, 100 down to 1 replicas. *)

val fig5 : experiment
(** Total cost against the capacity 20% of the nodes drop to, under
    two fault schedules, at the second rate. *)

val fig6 : experiment
(** The same at the highest rate, on a log y axis. *)

val ablations : experiment
(** Section 2.8's queue re-ordering under token-bucket capacity
    starvation (latency-first, flash-crowd and FIFO ordering of the
    outgoing update channels), and log-based cut-off after [n]
    consecutive dry updates, n = 1..5, which generalizes
    second-chance. *)

val overlays : experiment
(** CUP versus standard caching over three substrates — the 2-d CAN
    of the paper's evaluation, a Chord ring and Pastry — under the
    same workload.  CUP's benefits are a property of the
    query/update-channel design, not of any one routing geometry. *)

val techniques : experiment
(** With 10 replicas per key, the baseline (every replica refresh
    propagated separately, as in Table 3) against the two techniques
    Section 3.6 proposes — aggregating refreshes into batched updates,
    and suppressing a sampled subset — plus piggy-backed clear-bits.
    The justified column is the percentage of propagated updates that
    a query reached within their critical window (Section 3.1). *)

val model : experiment
(** Push updates only to the authority's direct neighbors
    ([Push_level 1]) and compare the measured fraction of justified
    updates with the closed-form [1 - exp (-L T)] of Section 3.1,
    where each neighbor's subtree carries ~1/fanout of the network
    query rate and [T] is the replica lifetime.  The fanout is read
    from the run it measures.  The measured number counts queries that
    reach the neighbor, a slight undercount of the model's "any query
    in the subtree" at high rates (fresh caches below absorb some
    queries). *)

val justification : experiment
(** The Section 3.1 cost-model check: the fraction of propagated
    updates that are justified, per policy and query rate, next to the
    realized saved-miss-per-overhead ratio against standard caching at
    the same rate.  The paper argues overhead is fully recovered when
    at least half the updates are justified. *)

val names : string list
(** The twelve experiments' names in run order: [fig3 fig4 table1
    table2 table3 fig5 fig6 ablations overlays techniques model
    justification]. *)

val print :
  ?pool:Cup_parallel.Pool.t -> ?csv_dir:string -> scale -> string list -> unit
(** [print scale selected] runs the experiments named in [selected]
    in {!names} order, each once, and prints each one's section banner
    and render to stdout.  [csv_dir] is created if missing.  Raises
    [Invalid_argument] if [selected] names an experiment outside
    {!names}, and [Sys_error] if [csv_dir] cannot be created (before
    anything runs) or written. *)

val section : string -> unit
(** Print a section banner, as {!print} does before each experiment. *)

(** {1 Push levels} *)

val push_levels : scale -> rate:float -> string * grid
(** The named grid of fig3, fig4, table1's optimal row and [cup sweep]
    at one rate: one cell per push level, labelled by the level, with
    metrics ["total"] and ["miss"]. *)

val optimal : cell list -> cell
(** The first cell of least ["total"]. *)

val print_push_level :
  ?csv_dir:string ->
  log_y:bool ->
  title:string ->
  (float * cell list) list ->
  unit
(** The Figure 3/4 renderer, one series of push-level cells per rate:
    a table of total and miss cost per level, each series' optimal
    level, an ASCII plot, and with [csv_dir] each series in
    [push_level_RATE_qps.csv]. *)

val table1_rows :
  scale -> (string -> cell list) -> (string * (float * int) list) list
(** Table 1's rows before normalization: each label with its total
    cost at each rate, read from the cells of table1's named grids. *)

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
(** Run the scenario's grid over a seed axis [seed, seed+1, ...,
    seed+runs-1] and report the mean and standard deviation of the
    headline metrics — for confidence intervals around any
    single-seed number.  Requires [runs >= 1]. *)

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
