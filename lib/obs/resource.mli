(** Process resource telemetry: GC pressure, RSS and event-heap load.

    {b Explicitly non-deterministic.}  Everything this module records
    depends on the host — allocator behaviour, GC scheduling, kernel
    page accounting — so it lives in its own registry namespace,
    [cup_process_*], and must never be mixed into the deterministic
    metric families that the byte-identity suites and golden digests
    compare.  ({!Serve} appends the [cup_process_*] exposition after
    the deterministic families for exactly this reason, and the CI
    scrape diff strips them back out.)

    {!snapshot} is the one-shot probe ([Gc.quick_stat] plus
    [/proc/self/status] where available); {!attach} schedules a
    recurring probe inside the DESS engine alongside
    {!Timeseries}-style samples, publishing gauges into a
    caller-provided registry. *)

type snapshot = {
  rss_bytes : int;  (** VmRSS; [0] when /proc is unavailable *)
  peak_rss_bytes : int;  (** VmHWM; [0] when /proc is unavailable *)
  minor_words : float;  (** cumulative, from [Gc.quick_stat] *)
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;  (** current major heap size *)
}

val snapshot : unit -> snapshot

type t

val attach :
  ?interval:float ->
  registry:Cup_metrics.Registry.t ->
  Cup_sim.Runner.Live.t ->
  t
(** Sample every [interval] virtual seconds (default [10.]) until the
    scenario's [sim_end], into [registry] as [cup_process_*] gauges:
    RSS and peak RSS in bytes, cumulative GC words/collections/
    compactions, current heap words, and the high-water of the
    engine's pending-event count seen at sample times.  The registry
    should be dedicated to this sampler — see the determinism caveat
    above. *)

val sample_now : t -> unit
(** Take one extra sample immediately (used at [finish] so the
    exposition reflects end-of-run totals). *)

val peak_rss_bytes : t -> int
(** Highest VmHWM observed by this sampler so far. *)

val pending_high_water : t -> int
(** Highest engine pending-event count observed at sample times. *)
