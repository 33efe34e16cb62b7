(** Labeled metrics with deterministic export.

    A registry holds named series — counters, gauges, and log-scale
    latency {!Histogram}s — optionally distinguished by label pairs
    (e.g. [("level", "2")]).  Registration is find-or-create: asking
    for the same (name, labels) twice returns the same instance, so
    hot paths can resolve a handle once and update it without further
    lookups.

    Every export walks series sorted by (name, labels) and prints
    floats in a fixed shortest-round-trip form, so registries holding
    equal values serialize to byte-identical text.  Combined with
    {!merge} being exact on counters and histogram bin counts, this
    lets {!Cup_parallel} fan-outs fold per-seed registries in seed
    order and byte-compare the result across job counts. *)

type t

val create : unit -> t

(** {1 Series}

    Registering the same name with two different kinds (or the same
    (name, labels) with conflicting kinds) raises [Invalid_argument].
    [help] is kept from the first registration that supplies it. *)

type counter

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
val inc : ?by:int -> counter -> unit
val counter_value : counter -> int

type gauge

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?min_value:float ->
  ?max_value:float ->
  ?bins_per_decade:int ->
  string ->
  Histogram.t
(** Bin-configuration arguments apply on first registration only (see
    {!Histogram.create} for defaults). *)

val observe : Histogram.t -> float -> unit
(** Alias for {!Histogram.add}. *)

val series_count : t -> int

(** {1 Combination} *)

val merge : t -> t -> t
(** Pointwise union: counters sum, histograms merge exactly
    ({!Histogram.merge}; identical bin configs required), gauges keep
    the maximum — the one pointwise gauge combination that needs no
    ordering information.  Inputs are not mutated. *)

(** {1 Export} *)

val to_prometheus : t -> string
(** Prometheus text exposition (v0.0.4): [# HELP]/[# TYPE] headers,
    histogram series expanded into cumulative [_bucket{le="..."}]
    lines plus [_sum]/[_count]. *)

val csv_header : string list

val csv_rows : t -> string list list
(** One row per series, matching {!csv_header}; write with
    [Cup_report.Csv.write]. *)

val pp : Format.formatter -> t -> unit
