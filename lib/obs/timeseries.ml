module Live = Cup_sim.Runner.Live
module Scenario = Cup_sim.Scenario
module Engine = Cup_dess.Engine
module Time = Cup_dess.Time
module Counters = Cup_metrics.Counters

type sample = {
  at : float;
  total_cost : int;
  miss_cost : int;
  overhead_cost : int;
  hits : int;
  misses : int;
  dropped_updates : int;
  pending_events : int;
  queued_updates : int;
  max_queue_depth : int;
}

(* Cumulative counter values at the previous sample, so each sample
   reports per-interval deltas. *)
type cursor = {
  mutable c_total : int;
  mutable c_miss : int;
  mutable c_overhead : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_dropped : int;
}

type t = {
  live : Live.t;
  interval : float;
  cursor : cursor;
  mutable rev_samples : sample list;
}

let interval t = t.interval
let samples t = List.rev t.rev_samples

let take t at =
  let counters = Live.counters t.live in
  let qs = Live.queue_stats t.live in
  let c = t.cursor in
  let total = Counters.total_cost counters in
  let miss = Counters.miss_cost counters in
  let overhead = Counters.overhead_cost counters in
  let hits = Counters.hits counters in
  let misses = Counters.misses counters in
  let dropped = Counters.dropped_updates counters in
  t.rev_samples <-
    {
      at;
      total_cost = total - c.c_total;
      miss_cost = miss - c.c_miss;
      overhead_cost = overhead - c.c_overhead;
      hits = hits - c.c_hits;
      misses = misses - c.c_misses;
      dropped_updates = dropped - c.c_dropped;
      pending_events = qs.Cup_sim.Runner.pending_events;
      queued_updates = qs.Cup_sim.Runner.queued_updates;
      max_queue_depth = qs.Cup_sim.Runner.max_queue_depth;
    }
    :: t.rev_samples;
  c.c_total <- total;
  c.c_miss <- miss;
  c.c_overhead <- overhead;
  c.c_hits <- hits;
  c.c_misses <- misses;
  c.c_dropped <- dropped

let attach ?(interval = 10.) live =
  if not (Float.is_finite interval && interval > 0.) then
    invalid_arg "Timeseries.attach: interval must be finite and > 0";
  let t =
    {
      live;
      interval;
      cursor =
        {
          c_total = 0;
          c_miss = 0;
          c_overhead = 0;
          c_hits = 0;
          c_misses = 0;
          c_dropped = 0;
        };
      rev_samples = [];
    }
  in
  let engine = Live.engine live in
  let sim_end = Scenario.sim_end (Live.scenario live) in
  let now = Time.to_seconds (Engine.now engine) in
  (* first tick: the next multiple of the interval after [now] *)
  let first = interval *. Float.of_int (int_of_float (now /. interval) + 1) in
  let rec arm at =
    if at <= sim_end then
      ignore
        (Engine.schedule ~label:"obs.sample" engine ~at:(Time.of_seconds at)
           (fun _ ->
             take t at;
             arm (at +. interval)))
  in
  arm first;
  t

let csv_header =
  [
    "t";
    "total_cost";
    "miss_cost";
    "overhead_cost";
    "hits";
    "misses";
    "dropped_updates";
    "pending_events";
    "queued_updates";
    "max_queue_depth";
  ]

let csv_rows t =
  List.map
    (fun s ->
      [
        Printf.sprintf "%g" s.at;
        string_of_int s.total_cost;
        string_of_int s.miss_cost;
        string_of_int s.overhead_cost;
        string_of_int s.hits;
        string_of_int s.misses;
        string_of_int s.dropped_updates;
        string_of_int s.pending_events;
        string_of_int s.queued_updates;
        string_of_int s.max_queue_depth;
      ])
    (samples t)

let write_csv t ~path = Cup_report.Csv.write ~path ~header:csv_header (csv_rows t)

let cost_plot ?width ?height t =
  let points get =
    List.map (fun s -> (s.at, float_of_int (get s))) (samples t)
  in
  Cup_report.Plot.render ?width ?height
    ~title:
      (Printf.sprintf "cost per %g s interval vs time" t.interval)
    ~x_label:"virtual time (s)" ~y_label:"hops/interval"
    [
      { Cup_report.Plot.label = "total"; points = points (fun s -> s.total_cost) };
      { Cup_report.Plot.label = "miss"; points = points (fun s -> s.miss_cost) };
      {
        Cup_report.Plot.label = "overhead";
        points = points (fun s -> s.overhead_cost);
      };
    ]
