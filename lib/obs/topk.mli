(** Rendering for {!Cup_metrics.Attribution}: the [cup top] ASCII
    tables, the [--top-out] CSV, the capped-cardinality Prometheus
    exposition, and the [/topk] JSON document.

    Every renderer is deterministic: entries come from
    {!Cup_metrics.Attribution.top} (sorted by weight desc, id asc),
    remainders are integer subtractions from the exact totals, and
    rate figures are folded from integer window counts — so output is
    byte-identical across job counts and shard counts
    whenever the underlying attribution state is. *)

val default_k : int
(** 20. *)

val table :
  ?k:int -> Cup_metrics.Attribution.t -> by:Cup_metrics.Attribution.axis ->
  string
(** Rendered ASCII table for one axis: weight and error bound, the
    per-metric counts, unjustified deliveries, and (key axis only)
    EWMA query/miss/overhead rates.  A [_other] row absorbs whatever
    the displayed entries don't account for. *)

val csv_header : string

val csv : ?k:int -> Cup_metrics.Attribution.t -> string
(** All three axes, [csv_header] first, [_other] rows included. *)

val prometheus : ?k:int -> Cup_metrics.Attribution.t -> string
(** Text exposition: [cup_key_attr_total{key=...,metric=...}],
    [cup_node_attr_total], [cup_level_hops_total].  Label cardinality
    is capped at top-[k] ids per family plus one [_other] sink series,
    independent of catalog size. *)

val json : ?k:int -> Cup_metrics.Attribution.t -> Json.t
(** The [/topk] document: per axis, tracked-entry and eviction counts,
    the top-[k] entries (with rates on the key axis), the [_other]
    remainder and the exact totals. *)
