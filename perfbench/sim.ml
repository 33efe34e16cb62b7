(* One repetition of a workload, timed from outside the simulator.

   Every repetition produces the text of its deterministic output (the
   counters summary, [Scale.summary], the analyzer summary) and checks
   the invariants that hold for any seed.  The caller digests the text
   and compares it with the pinned digest and with its other
   repetitions. *)

open Cup_sim
module Engine = Cup_dess.Engine
module Counters = Cup_metrics.Counters
module Attribution = Cup_metrics.Attribution
module Sink = Cup_obs.Sink
module Audit = Cup_obs.Audit
module Analyzer = Cup_obs.Analyzer

let now () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, seconds_since t0)

(* Host time spent inside the observer layer, accumulated only when the
   sinks are wrapped in timing callbacks. *)
type obs = {
  mutable audit_s : float;
  mutable trace_emit_s : float;
  mutable emitted : int;
  mutable trace_bytes : int;
  mutable trace_close_s : float;
  mutable analyze_s : float;
  mutable analyzed : int;
}

type rep = {
  setup_s : float;
  wall_s : float;
  events : int;  (** engine events, or Scale events; deterministic *)
  posted : int;
  answered : int;
  total_cost : int;
  miss_latency : float;  (** mean, hops *)
  text : string;  (** the deterministic output that gets digested *)
  problems : string list;  (** violated invariants *)
  profile : Engine.profile option;
  tracked : int;
  justified : int;
  cache_hits : int;
  cache_misses : int;
  quarters : (float * int) array;
      (** host seconds and events per quarter of simulated time; empty
          unless the run was split *)
  obs : obs;
  scale : Scale.result option;
}

let digest rep = Digest.to_hex (Digest.string rep.text)

(* {1 Runner} *)

type variant = {
  traced : bool;
      (** engine probes on, run split into quarters with [run_until],
          each sink wrapped in a timing callback *)
  attribution : bool;  (** attach attribution on observed workloads *)
}

let untraced = { traced = false; attribution = true }
let traced = { traced = true; attribution = true }

let new_obs () =
  {
    audit_s = 0.;
    trace_emit_s = 0.;
    emitted = 0;
    trace_bytes = 0;
    trace_close_s = 0.;
    analyze_s = 0.;
    analyzed = 0;
  }

(* [sink] behind a callback that adds the host time of every emit to
   [add]. *)
let timing_sink sink add =
  Sink.of_callback
    ~close:(fun () -> Sink.close sink)
    (fun e ->
      let t0 = now () in
      Sink.emit sink e;
      add (seconds_since t0))

(* Read the trace back: every record must parse as a protocol event,
   and the causal forest must have no orphans. *)
let analyze path obs problems =
  let st = Analyzer.Streaming.create () in
  let bad = ref 0 in
  let (), s =
    timed (fun () ->
        Cup_obs.Trace_reader.iter path ~f:(fun _ item ->
            match item with
            | Cup_obs.Trace_reader.Event e -> Analyzer.Streaming.feed st e
            | Scale_record _ | Raw _ | Malformed _ -> incr bad))
  in
  let summary, s' = timed (fun () -> Analyzer.Streaming.finish st) in
  obs.analyze_s <- s +. s';
  obs.analyzed <- summary.Analyzer.events;
  if !bad > 0 then problems := Printf.sprintf "%d unreadable trace records" !bad :: !problems;
  if summary.orphans > 0 then
    problems := Printf.sprintf "%d orphan spans" summary.orphans :: !problems;
  if summary.events <> obs.emitted then
    problems :=
      Printf.sprintf "trace holds %d events, %d emitted" summary.events
        obs.emitted
      :: !problems;
  summary

let run_runner ~observed ~trace_path (v : variant) (sc : Scenario.t) =
  let problems = ref [] in
  let obs = new_obs () in
  let t0 = now () in
  let live = Runner.Live.create sc in
  let setup_s = seconds_since t0 in
  let engine = Runner.Live.engine live in
  if v.traced then Engine.enable_profiling engine;
  let counters = Runner.Live.counters live in
  let observers =
    if not observed then None
    else begin
      if v.attribution then
        Runner.Live.set_attribution live
          (Some
             (Attribution.create
                ~config:{ Attribution.default_config with capacity = 64 }
                ()));
      let auditor =
        Audit.create
          ~max_backlog:(max 1024 (16 * sc.nodes * Scenario.total_keys sc))
          ~backlog:(fun () -> Runner.Live.justification_backlog live)
          ~tolerate_stale:true ~counters ()
      in
      let writer = Cup_obs.Binary_writer.to_file trace_path in
      let wrap sink add = if v.traced then timing_sink sink add else sink in
      let trace_sink =
        wrap (Sink.binary writer) (fun s ->
            obs.trace_emit_s <- obs.trace_emit_s +. s)
      in
      let audit_sink =
        wrap (Audit.sink auditor) (fun s -> obs.audit_s <- obs.audit_s +. s)
      in
      let sink = Sink.fanout [ trace_sink; audit_sink ] in
      Sink.attach live sink;
      Some (auditor, writer, sink)
    end
  in
  let close_sink () =
    match observers with
    | None -> ()
    | Some (_, writer, sink) ->
        obs.emitted <- Sink.events_seen sink;
        let (), s = timed (fun () -> Sink.close sink) in
        obs.trace_close_s <- s;
        obs.trace_bytes <- Cup_obs.Binary_writer.bytes_written writer
  in
  let quarters =
    if not v.traced then [||]
    else begin
      let sim_end = Scenario.sim_end sc in
      Array.init 3 (fun q ->
          let e0 = Engine.events_executed engine in
          let (), s =
            timed (fun () ->
                Runner.Live.run_until live
                  (sim_end *. float_of_int (q + 1) /. 4.))
          in
          (s, Engine.events_executed engine - e0))
    end
  in
  let e0 = Engine.events_executed engine in
  let result, s_last =
    timed (fun () ->
        try Runner.Live.finish live
        with e ->
          (try close_sink () with _ -> ());
          raise e)
  in
  let quarters =
    if v.traced then
      Array.append quarters [| (s_last, result.engine_events - e0) |]
    else quarters
  in
  let analysis =
    match observers with
    | None -> ""
    | Some (auditor, _, _) ->
        Audit.finish auditor;
        close_sink ();
        let summary = analyze trace_path obs problems in
        Sys.remove trace_path;
        if summary.hits <> Counters.hits counters
           || summary.misses <> Counters.misses counters
        then
          problems :=
            Printf.sprintf "analyzer %d hits/%d misses, counters %d/%d"
              summary.hits summary.misses (Counters.hits counters)
              (Counters.misses counters)
            :: !problems;
        Format.asprintf "%a" (Analyzer.pp_summary ~max_traces:5) summary
  in
  let c = result.counters in
  let text =
    Format.asprintf
      "%a@.posted=%d events=%d replica-events=%d justified=%d/%d@.%s"
      Counters.pp c result.queries_posted result.engine_events
      result.replica_events result.justified_updates result.tracked_updates
      analysis
  in
  let wall_s = seconds_since t0 in
  if Counters.in_flight c <> 0 then
    problems :=
      Printf.sprintf "%d messages still in flight" (Counters.in_flight c)
      :: !problems;
  if Counters.sent c <> Counters.delivered c + Counters.transport_lost c then
    problems := "transport counters do not balance" :: !problems;
  if Counters.local_queries c > result.queries_posted then
    problems := "more answers than queries" :: !problems;
  {
    setup_s;
    wall_s;
    events = result.engine_events;
    posted = result.queries_posted;
    answered = Counters.local_queries c;
    total_cost = Counters.total_cost c;
    miss_latency = Counters.avg_miss_latency_hops c;
    text;
    problems = !problems;
    profile = result.profile;
    tracked = result.tracked_updates;
    justified = result.justified_updates;
    cache_hits = Counters.route_cache_hits c;
    cache_misses = Counters.route_cache_misses c;
    quarters;
    obs;
    scale = None;
  }

(* {1 Scale}

   [Scale.run] has no separate construction call, so its set-up is
   timed as a run of the same nodes, keys and shards over one window
   with no queries: the ring, the shard stores, key registration and,
   with more than one shard, the domain pool. *)

let setup_probe (cfg : Scale.config) =
  { cfg with query_start = 0.; query_duration = cfg.hop_delay; drain = 0.; rate = 1e-9 }

let run_scale ?tracer (cfg : Scale.config) =
  let _, setup_s = timed (fun () -> Scale.run (setup_probe cfg)) in
  let t0 = now () in
  let r = Scale.run ?tracer cfg in
  let text = Scale.summary r in
  let wall_s = seconds_since t0 in
  let t = r.totals in
  let problems = ref [] in
  if t.hits + t.misses <> t.posts then
    problems := "hits + misses <> posts" :: !problems;
  if t.answered > t.misses then problems := "answered > misses" :: !problems;
  let miss_cost = t.query_hops + t.ft_answer_hops in
  let overhead =
    t.ft_proactive_hops + t.refresh_hops + t.delete_hops + t.append_hops
    + t.clear_hops
  in
  {
    setup_s;
    wall_s;
    events = r.events;
    posted = t.posts;
    answered = t.hits + t.answered;
    total_cost = miss_cost + overhead;
    miss_latency =
      (if t.answered = 0 then 0.
       else float_of_int t.latency_hops /. float_of_int t.answered);
    text;
    problems = !problems;
    profile = None;
    tracked = 0;
    justified = 0;
    cache_hits = 0;
    cache_misses = 0;
    quarters = [||];
    obs = new_obs ();
    scale = Some r;
  }

let run ?(variant = untraced) ~trace_path (w : Workloads.t) ~seed =
  match w.shape ~seed with
  | Runner_shape sc -> run_runner ~observed:w.observed ~trace_path variant sc
  | Scale_shape cfg -> run_scale cfg

(* The set-up step alone, as timed in [setup_s]. *)
let setup_only (w : Workloads.t) ~seed =
  match w.shape ~seed with
  | Runner_shape sc -> snd (timed (fun () -> Runner.Live.create sc))
  | Scale_shape cfg -> snd (timed (fun () -> Scale.run (setup_probe cfg)))
