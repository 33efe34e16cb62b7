(* The `cup` command-line interface.

   Subcommands:
     cup run    — run one simulation with explicit parameters
     cup scale  — run a batch-synchronous sharded run (millions of nodes)
     cup top    — per-key/per-node/per-level cost attribution tables
     cup sweep  — sweep the push level for one query rate
     cup exp    — print the paper's experiments: all twelve, or those
                  named (fig3 fig4 table1 ...)
     cup trace  — analyze a protocol trace (JSONL or binary .ctrace):
                  propagation trees, latency percentiles, per-key summary
     cup trace convert — convert a trace between JSONL and .ctrace
     cup replay — alias of `cup trace` that also prints every event
*)

open Cmdliner

module Scenario = Cup_sim.Scenario
module Runner = Cup_sim.Runner
module E = Cup_sim.Experiments
module Counters = Cup_metrics.Counters
module Policy = Cup_proto.Policy
module Sink = Cup_obs.Sink
module Timeseries = Cup_obs.Timeseries
module Attribution = Cup_metrics.Attribution
module Topk = Cup_obs.Topk

(* {1 Shared argument definitions} *)

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let nodes =
  Arg.(
    value & opt int 256
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of overlay nodes.")

let keys =
  Arg.(
    value & opt int 1
    & info [ "k"; "keys" ] ~docv:"N" ~doc:"Number of keys in the global index.")

let rate =
  Arg.(
    value & opt float 1.
    & info [ "rate" ] ~docv:"Q/S" ~doc:"Network-wide query rate (Poisson).")

let duration =
  Arg.(
    value & opt float 3000.
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Query-posting window length.")

let lifetime =
  Arg.(
    value & opt float 300.
    & info [ "lifetime" ] ~docv:"SECONDS" ~doc:"Replica/entry lifetime.")

let replicas =
  Arg.(
    value & opt int 1
    & info [ "replicas" ] ~docv:"N" ~doc:"Replicas per key.")

let policy_conv =
  let parse s =
    let fail () =
      Error
        (`Msg
          (Printf.sprintf
             "unknown policy %S (try: standard, all-out, second-chance, \
              push-level:P, linear:A, log:A, log-based:N)"
             s))
    in
    match String.split_on_char ':' s with
    | [ "standard" ] | [ "standard-caching" ] -> Ok Policy.Standard_caching
    | [ "all-out" ] -> Ok Policy.All_out
    | [ "second-chance" ] -> Ok Policy.second_chance
    | [ "push-level"; p ] -> (
        match int_of_string_opt p with
        | Some p when p >= 0 -> Ok (Policy.Push_level p)
        | Some _ | None -> fail ())
    | [ "linear"; a ] -> (
        match float_of_string_opt a with
        | Some a -> Ok (Policy.Linear a)
        | None -> fail ())
    | [ "log"; a ] | [ "logarithmic"; a ] -> (
        match float_of_string_opt a with
        | Some a -> Ok (Policy.Logarithmic a)
        | None -> fail ())
    | [ "log-based"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> Ok (Policy.Log_based n)
        | Some _ | None -> fail ())
    | _ -> fail ()
  in
  Arg.conv (parse, fun fmt p -> Policy.pp fmt p)

let policy =
  Arg.(
    value
    & opt policy_conv Policy.second_chance
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Cut-off policy: standard, all-out, second-chance, push-level:P, \
           linear:A, log:A, log-based:N.")

let overlay_conv =
  let parse = function
    | "can" -> Ok (Cup_overlay.Net.Can `Random)
    | "can-grid" -> Ok (Cup_overlay.Net.Can `Grid)
    | "chord" -> Ok Cup_overlay.Net.Chord
    | "pastry" -> Ok Cup_overlay.Net.Pastry
    | s ->
        Error
          (`Msg
            (Printf.sprintf "unknown overlay %S (can, can-grid, chord, pastry)"
               s))
  in
  let print fmt = function
    | Cup_overlay.Net.Can `Random -> Format.pp_print_string fmt "can"
    | Cup_overlay.Net.Can `Grid -> Format.pp_print_string fmt "can-grid"
    | Cup_overlay.Net.Chord -> Format.pp_print_string fmt "chord"
    | Cup_overlay.Net.Pastry -> Format.pp_print_string fmt "pastry"
  in
  Arg.conv (parse, print)

let overlay =
  Arg.(
    value
    & opt overlay_conv (Cup_overlay.Net.Can `Random)
    & info [ "overlay" ] ~docv:"OVERLAY"
        ~doc:
          "Structured overlay to run CUP over: can, can-grid, chord, or \
           pastry.")

let runs =
  Arg.(
    value & opt int 1
    & info [ "runs" ]
        ~docv:"N"
        ~doc:"Repeat the run over N consecutive seeds and report mean +/- stddev.")

let full =
  Arg.(
    value & flag
    & info [ "full" ] ~doc:"Run experiments at the paper's full scale.")

let jobs =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Fan the experiment's independent simulations across $(docv) \
           domains (0, the default, means one per core; 1 runs \
           sequentially).  Results are byte-identical for every value — \
           only wall-clock time changes.")

(* Run [f] with a domain pool of the requested size ([None] when the
   fan-out would be trivial), shutting the pool down afterwards. *)
let with_jobs jobs f =
  let jobs = if jobs = 0 then Cup_parallel.Pool.default_jobs () else jobs in
  if jobs <= 1 then f None
  else Cup_parallel.Pool.with_pool ~jobs (fun pool -> f (Some pool))

let scenario_of ~seed ~nodes ~keys ~rate ~duration ~lifetime ~replicas ~policy
    ~overlay =
  Scenario.with_policy
    {
      Scenario.default with
      seed;
      nodes;
      total_keys_override = Some keys;
      query_rate = rate;
      query_duration = duration;
      replica_lifetime = lifetime;
      replicas_per_key = replicas;
      overlay;
    }
    policy

let print_result (r : Runner.result) =
  let c = r.counters in
  Format.printf "%a@." Counters.pp c;
  if Counters.misses c > 0 then
    Printf.printf
      "miss latency percentiles (hops): p50=%.1f p90=%.1f p99=%.1f\n"
      (Counters.miss_latency_percentile c 0.5)
      (Counters.miss_latency_percentile c 0.9)
      (Counters.miss_latency_percentile c 0.99);
  if r.tracked_updates > 0 then
    Printf.printf "justified updates: %d / %d (%.1f%%)\n" r.justified_updates
      r.tracked_updates
      (100. *. float_of_int r.justified_updates
      /. float_of_int r.tracked_updates);
  Printf.printf
    "queries posted: %d, replica events: %d, engine events: %d, wallclock: \
     %.2fs (%.0f events/s)\n"
    r.queries_posted r.replica_events r.engine_events r.wallclock
    r.events_per_sec;
  (match r.profile with
  | Some profile ->
      Format.printf "engine profile:@.%a@."
        Cup_dess.Engine.pp_profile profile
  | None -> ());
  let s = r.node_stats in
  Printf.printf
    "node totals: queries=%d coalesced=%d cache-answers=%d updates=%d \
     forwarded=%d clear-bits=%d expired-dropped=%d\n"
    s.queries_in s.queries_coalesced s.cache_answers s.updates_in
    s.updates_forwarded s.clear_bits_sent s.expired_updates_dropped

(* {1 cup run} *)

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Stream every protocol event to $(docv): JSONL (one \
           self-describing JSON object per line) by default, or the \
           compact binary format via a background writer thread when \
           $(docv) ends in .ctrace.  Both replay with $(b,cup replay) \
           and convert with $(b,cup trace convert).")

let sample_interval =
  Arg.(
    value
    & opt (some float) None
    & info [ "sample-interval" ] ~docv:"SECS"
        ~doc:
          "Sample cost/hit/queue counters every $(docv) virtual seconds and \
           print a cost-vs-time plot after the run.")

let sample_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "sample-out" ] ~docv:"FILE"
        ~doc:
          "Also write the time series to $(docv) as CSV (implies \
           --sample-interval 10 unless given).")

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Enable the engine profiling probes and print per-label callback \
           counts, host time, and the event-heap high-water mark.")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Record latency histograms (query latency in hops, update \
           propagation latency per tree level, repair latency) and the \
           run's counters into a metrics registry, dumped to $(docv) at \
           run end — Prometheus text exposition, or CSV when $(docv) ends \
           in .csv.")

let serve_port =
  Arg.(
    value
    & opt (some int) None
    & info [ "serve" ] ~docv:"PORT"
        ~doc:
          "Serve live run health over HTTP on 127.0.0.1:$(docv) while the \
           simulation runs (0 picks an ephemeral port, printed at start).  \
           $(b,GET /metrics) is the Prometheus exposition — byte-identical \
           to the --metrics-out file for the deterministic families, with \
           the non-deterministic cup_process_* resource gauges appended; \
           $(b,GET /health) is a JSON heartbeat (virtual time, events/s, \
           queue depths, fault and transport counters); $(b,GET \
           /trace?n=K) returns the last K protocol events as JSONL.  The \
           process keeps serving after the run finishes, until \
           interrupted.")

let audit_flag =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Stream every protocol event through the online invariant \
           auditor: V1 message conservation (sent = delivered + lost + \
           in-flight), V2 per-replica freshness monotonicity, V3 bounded \
           justification backlog, V4 causal span soundness.  The first \
           breach aborts the run with a numbered violation report and \
           exit status 3.")

let crash_rate =
  Arg.(
    value & opt float 0.
    & info [ "crash-rate" ] ~docv:"RATE"
        ~doc:
          "Inject node crashes at $(docv) crashes/second (Poisson, from \
           the deterministic PRNG).  A crashed node loses its directories \
           and queued updates; dependents detect the silence and repair \
           their subscriptions.  0 (the default) disables crash injection.")

let crash_recover =
  Arg.(
    value & opt float 30.
    & info [ "crash-recover" ] ~docv:"SECS"
        ~doc:
          "Seconds after each crash before a replacement node joins; 0 \
           means crashed capacity is never replaced.  Only meaningful with \
           --crash-rate > 0.")

let loss_rate =
  Arg.(
    value & opt float 0.
    & info [ "loss-rate" ] ~docv:"P"
        ~doc:
          "Drop each message in transit with probability $(docv) (0..1).  \
           Lost queries retransmit with capped backoff; lost updates are \
           healed by subscription repair.  0 (the default) disables loss.")

let loss_jitter =
  Arg.(
    value & opt float 0.
    & info [ "loss-jitter" ] ~docv:"J"
        ~doc:
          "Per-channel spread of the loss rate: each (sender, receiver) \
           channel drops at rate*(1 + J*u) for a deterministic per-channel \
           u in [-1, 1).  Only meaningful with --loss-rate > 0.")

let zipf =
  Arg.(
    value & opt float 0.
    & info [ "zipf" ] ~docv:"ALPHA"
        ~doc:
          "Draw query keys from a Zipf distribution with exponent $(docv) \
           instead of uniformly.  0 (the default) keeps the uniform \
           distribution.")

let partition_frac =
  Arg.(
    value & opt float 0.
    & info [ "partition" ] ~docv:"F"
        ~doc:
          "Cut the network for a time window: each node lands on the island \
           side with probability $(docv) (pure hash of seed and node id, so \
           membership is stable and costs no randomness).  Messages into \
           the island are dropped while the cut is open — and out of it \
           too with --partition-symmetric.  0 (the default) disables \
           partitioning.")

let partition_start =
  Arg.(
    value & opt float 0.
    & info [ "partition-start" ] ~docv:"SECS"
        ~doc:
          "Seconds after the query window opens before the cut opens.  \
           Only meaningful with --partition > 0.")

let partition_duration =
  Arg.(
    value & opt float 0.
    & info [ "partition-duration" ] ~docv:"SECS"
        ~doc:
          "Seconds the cut stays open; 0 (the default) keeps it open for \
           the whole query window.  Only meaningful with --partition > 0.")

let partition_symmetric =
  Arg.(
    value & flag
    & info [ "partition-symmetric" ]
        ~doc:
          "Drop messages in both directions across the cut.  The default \
           is the asymmetric shape: island nodes keep sending but never \
           hear back.")

let reorder_rate =
  Arg.(
    value & opt float 0.
    & info [ "reorder-rate" ] ~docv:"P"
        ~doc:
          "Delay each message with probability $(docv) (0..1) so later \
           sends can overtake it.  Receivers discard entries staler than \
           their cache, so reordering never regresses freshness.  0 (the \
           default) disables reordering.")

let reorder_spread =
  Arg.(
    value & opt float 4.
    & info [ "reorder-spread" ] ~docv:"HOPS"
        ~doc:
          "Maximum extra delay of a reordered message, in hop delays \
           (0 < spread <= 32, default 4).  Only meaningful with \
           --reorder-rate > 0.")

let duplicate_rate =
  Arg.(
    value & opt float 0.
    & info [ "duplicate-rate" ] ~docv:"P"
        ~doc:
          "Deliver a second copy of each message with probability $(docv) \
           (0..1), one extra hop delay later.  Protocol handlers tolerate \
           redelivery; the audit counts each copy as its own transport \
           message.  0 (the default) disables duplication.")

(* {1 Cost-attribution options (cup run / cup scale / cup top)} *)

let attribution_arg =
  Arg.(
    value & opt int 0
    & info [ "attribution" ] ~docv:"K"
        ~doc:
          "Attribute per-key/per-node/per-level costs in a top-$(docv) \
           space-saving sketch (see cup top).  0 (the default) keeps \
           attribution detached — the delivery path then pays a single \
           branch and allocates nothing.")

let by_conv =
  let parse = function
    | "all" -> Ok None
    | s -> (
        match Attribution.axis_of_string s with
        | Some a -> Ok (Some a)
        | None ->
            Error
              (`Msg
                (Printf.sprintf "unknown axis %S (key, node, level, all)" s)))
  in
  let print fmt = function
    | None -> Format.pp_print_string fmt "all"
    | Some a -> Format.pp_print_string fmt (Attribution.axis_name a)
  in
  Arg.conv (parse, print)

let by_arg =
  Arg.(
    value & opt by_conv None
    & info [ "by" ] ~docv:"AXIS"
        ~doc:"Attribution axis to report: key, node, level, or all.")

let top_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "top-out" ] ~docv:"FILE"
        ~doc:
          "Write the attribution top-K tables (all axes) as CSV to $(docv).")

let attribution_config capacity =
  { Attribution.default_config with capacity }

let print_attribution a ~by ~k =
  let axes =
    match by with
    | None -> [ Attribution.Key; Attribution.Node; Attribution.Level ]
    | Some axis -> [ axis ]
  in
  List.iter
    (fun by ->
      print_string (Topk.table ~k a ~by);
      print_newline ())
    axes

let write_top_out ~path ~k a =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Topk.csv ~k a));
  (* stderr: the path is invocation-specific, and stdout must stay
     byte-identical across job counts and shard counts. *)
  Printf.eprintf "top: %s\n" path

let write_metrics ?(extra = "") ~path registry =
  let module Registry = Cup_metrics.Registry in
  if Filename.check_suffix path ".csv" then
    Cup_report.Csv.write ~path ~header:Registry.csv_header
      (Registry.csv_rows registry)
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Registry.to_prometheus registry);
        output_string oc extra)
  end;
  Printf.printf "metrics: %d series -> %s\n"
    (Registry.series_count registry)
    path

(* A violation report must carry everything needed to replay the run:
   the rendered repro command pins the seed and every fault flag, so
   the report alone reproduces the failure. *)
let violation_exit cfg v =
  Format.eprintf "cup run: audit failed@.  %a@.  repro: %s@."
    Cup_obs.Audit.pp_violation v
    (Cup_sim.Fuzz.repro_command cfg);
  exit 3

(* A run that needs live observability: attach sinks/samplers/probes
   before driving the engine to completion. *)
let run_observed cfg ~trace_out ~metrics_out ~sample_interval ~sample_out
    ~profile ~serve ~audit ~attribution =
  let module Audit = Cup_obs.Audit in
  let module Serve = Cup_obs.Serve in
  let module Resource = Cup_obs.Resource in
  let live = Runner.Live.create cfg in
  if profile then
    Cup_dess.Engine.enable_profiling (Runner.Live.engine live);
  let attribution =
    if attribution <= 0 then None
    else begin
      let a = Attribution.create ~config:(attribution_config attribution) () in
      Runner.Live.set_attribution live (Some a);
      Some a
    end
  in
  let file_sink =
    Option.map
      (fun path ->
        let sink =
          if Filename.check_suffix path ".ctrace" then Sink.binary_file path
          else Sink.jsonl_file path
        in
        (path, sink))
      trace_out
  in
  let registry =
    if metrics_out <> None || serve <> None then begin
      let registry = Cup_metrics.Registry.create () in
      Runner.Live.set_metrics live (Some registry);
      Some registry
    end
    else None
  in
  let auditor =
    if audit then begin
      let bound =
        max 1024 (16 * cfg.Scenario.nodes * Scenario.total_keys cfg)
      in
      Some
        (Audit.create ~max_backlog:bound
           ~backlog:(fun () -> Runner.Live.justification_backlog live)
           ~tolerate_stale:
             (cfg.Scenario.reorder <> None || cfg.Scenario.duplication <> None)
           ~context:(Cup_sim.Fuzz.repro_command cfg)
           ~counters:(Runner.Live.counters live) ())
    end
    else None
  in
  let resource, server =
    match serve with
    | None -> (None, None)
    | Some port ->
        let process = Cup_metrics.Registry.create () in
        let sampler = Resource.attach ~registry:process live in
        let srv =
          Serve.start ~port ~resource:process
            ~registry:(Option.get registry) live
        in
        Printf.printf
          "serving on http://127.0.0.1:%d (GET /metrics, /health, \
           /trace?n=K, /topk)\n\
           %!"
          (Serve.port srv);
        (Some sampler, Some srv)
  in
  (match
     List.filter_map Fun.id
       [
         Option.map snd file_sink;
         Option.map Serve.sink server;
         Option.map Audit.sink auditor;
       ]
   with
  | [] -> ()
  | [ sink ] -> Sink.attach live sink
  | sinks -> Sink.attach live (Sink.fanout sinks));
  let sampler =
    let interval =
      match (sample_interval, sample_out) with
      | Some i, _ -> Some i
      | None, Some _ -> Some 10.
      | None, None -> None
    in
    Option.map (fun interval -> Timeseries.attach ~interval live) interval
  in
  let result =
    try Runner.Live.finish live with Audit.Violation v -> violation_exit cfg v
  in
  (match auditor with
  | None -> ()
  | Some a -> (
      try Audit.finish a with Audit.Violation v -> violation_exit cfg v));
  print_result result;
  (match attribution with
  | None -> ()
  | Some a -> print_attribution a ~by:None ~k:Topk.default_k);
  (match auditor with
  | None -> ()
  | Some a ->
      Printf.printf "audit: OK (%d events, 4 invariants)\n"
        (Audit.events_checked a));
  (match file_sink with
  | None -> ()
  | Some (path, sink) ->
      Sink.close sink;
      Printf.printf "trace: %d events -> %s\n" (Sink.events_seen sink) path);
  (match (metrics_out, registry) with
  | Some path, Some registry ->
      (* Same bytes a /metrics scrape serves after mark_finished: the
         registry exposition plus the capped-cardinality attribution
         families. *)
      let extra =
        match attribution with None -> "" | Some a -> Topk.prometheus a
      in
      write_metrics ~extra ~path registry
  | _ -> ());
  (match sampler with
  | None -> ()
  | Some ts ->
      (match sample_out with
      | None -> ()
      | Some path ->
          Timeseries.write_csv ts ~path;
          Printf.printf "time series: %d samples -> %s\n"
            (List.length (Timeseries.samples ts))
            path);
      print_newline ();
      print_string (Timeseries.cost_plot ts));
  match (server, resource) with
  | Some srv, sampler ->
      Option.iter Resource.sample_now sampler;
      Serve.mark_finished srv;
      Printf.printf
        "run finished; still serving http://127.0.0.1:%d — interrupt to \
         exit\n\
         %!"
        (Serve.port srv);
      while true do
        Thread.delay 3600.
      done
  | None, _ -> ()

let run_cmd =
  let action seed nodes keys rate duration lifetime replicas policy overlay
      runs jobs trace_out metrics_out sample_interval
      sample_out profile serve audit attribution crash_rate crash_recover
      loss_rate loss_jitter zipf partition_frac partition_start
      partition_duration partition_symmetric reorder_rate reorder_spread
      duplicate_rate =
    let cfg =
      {
        (scenario_of ~seed ~nodes ~keys ~rate ~duration ~lifetime ~replicas
           ~policy ~overlay)
        with
        key_dist = (if zipf = 0. then `Uniform else `Zipf zipf);
        crashes =
          (if crash_rate <> 0. then
             Some
               {
                 Scenario.crash_rate;
                 recover_after = crash_recover;
                 warmup = 0.;
               }
           else None);
        loss =
          (if loss_rate <> 0. then
             Some { Scenario.drop = loss_rate; jitter = loss_jitter }
           else None);
        partition =
          (if partition_frac <> 0. then
             Some
               {
                 Scenario.fraction = partition_frac;
                 p_start = partition_start;
                 p_duration =
                   (if partition_duration = 0. then duration
                    else partition_duration);
                 symmetric = partition_symmetric;
               }
           else None);
        reorder =
          (if reorder_rate <> 0. then
             Some
               {
                 Scenario.r_probability = reorder_rate;
                 r_spread = reorder_spread;
               }
           else None);
        duplication =
          (if duplicate_rate <> 0. then
             Some { Scenario.d_probability = duplicate_rate }
           else None);
      }
    in
    (match Scenario.validate cfg with
    | Ok () -> ()
    | Error msg ->
        prerr_endline ("cup run: " ^ msg);
        exit 1);
    let observed_single =
      trace_out <> None || sample_interval <> None || sample_out <> None
      || profile || serve <> None || audit || attribution > 0
    in
    let observed = observed_single || metrics_out <> None in
    if runs < 1 then begin
      prerr_endline "cup run: --runs must be >= 1";
      exit 1
    end;
    (match sample_interval with
    | Some i when not (Float.is_finite i && i > 0.) ->
        prerr_endline "cup run: --sample-interval must be finite and > 0";
        exit 1
    | _ -> ());
    if crash_rate > 0. && crash_recover <= 0. then begin
      prerr_endline "cup run: --crash-recover must be > 0";
      exit 1
    end;
    if not (loss_jitter >= 0. && loss_jitter <= 1.) then begin
      prerr_endline "cup run: --loss-jitter must be in [0, 1]";
      exit 1
    end;
    if runs > 1 && observed_single then
      prerr_endline
        "cup run: note: --trace-out/--sample-*/--profile/--serve/--audit/\
         --attribution apply only to single runs; ignored with --runs > 1";
    try
      if runs <= 1 && observed then
        try
          run_observed cfg ~trace_out ~metrics_out ~sample_interval ~sample_out
            ~profile ~serve ~audit ~attribution
        with Sys_error msg ->
          prerr_endline ("cup run: " ^ msg);
          exit 1
      else if runs <= 1 then print_result (Runner.run cfg)
      else begin
        let r, merged =
          with_jobs jobs (fun pool ->
              match metrics_out with
              | None -> (E.replicate ?pool cfg ~runs, None)
              | Some _ ->
                  let r, registry = E.replicate_metrics ?pool cfg ~runs in
                  (r, Some registry))
        in
        Printf.printf "over %d seeds (mean +/- stddev):\n" r.runs;
        Printf.printf "  total cost:   %.1f +/- %.1f hops\n" r.total_mean
          r.total_stddev;
        Printf.printf "  miss cost:    %.1f +/- %.1f hops\n" r.miss_mean
          r.miss_stddev;
        Printf.printf "  misses:       %.1f +/- %.1f\n" r.misses_mean
          r.misses_stddev;
        Printf.printf "  miss latency: %.2f +/- %.2f hops\n" r.latency_mean
          r.latency_stddev;
        match (metrics_out, merged) with
        | Some path, Some registry -> (
            try write_metrics ~path registry
            with Sys_error msg ->
              prerr_endline ("cup run: " ^ msg);
              exit 1)
        | _ -> ()
      end
    with Out_of_memory ->
      prerr_endline "cup run: out of memory";
      exit 1
  in
  let term =
    Term.(
      const action $ seed $ nodes $ keys $ rate $ duration $ lifetime
      $ replicas $ policy $ overlay $ runs $ jobs
      $ trace_out
      $ metrics_out $ sample_interval $ sample_out $ profile_flag
      $ serve_port $ audit_flag $ attribution_arg $ crash_rate
      $ crash_recover $ loss_rate
      $ loss_jitter $ zipf $ partition_frac $ partition_start
      $ partition_duration $ partition_symmetric $ reorder_rate
      $ reorder_spread $ duplicate_rate)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one CUP simulation and print its cost summary.")
    term

(* {1 cup trace / cup replay / cup trace convert}

   One implementation behind both names: stream the trace (JSONL or
   binary .ctrace, sniffed from the file header) through the
   single-pass analyzer, optionally pretty-printing (filtered) events
   on the way — the event list is never materialized, so arbitrarily
   large traces analyze in bounded memory.  `replay` is the historical
   name and prints the events by default; `trace` leads with the
   analysis.  Exit status is non-zero when any record fails to parse
   or any span references a missing parent. *)

let trace_action ~print_events_default file key_filter print_events
    no_summary max_traces =
  let module Reader = Cup_obs.Trace_reader in
  let total = ref 0 and bad = ref 0 and shown = ref 0 in
  let printing = print_events_default || print_events || key_filter <> None in
  let wanted (e : Cup_sim.Trace.event) =
    match key_filter with
    | None -> true
    | Some k -> (
        match e with
        | Query_posted { key; _ }
        | Query_forwarded { key; _ }
        | Update_delivered { key; _ }
        | Clear_bit_delivered { key; _ }
        | Local_answer { key; _ }
        | Message_lost { key; _ }
        | Repair_query { key; _ } ->
            Cup_overlay.Key.to_int key = k
        | Node_crashed _ | Node_recovered _ -> false)
  in
  let streaming = Cup_obs.Analyzer.Streaming.create () in
  Reader.iter file ~f:(fun n item ->
      incr total;
      match item with
      | Reader.Event e ->
          Cup_obs.Analyzer.Streaming.feed streaming e;
          if printing && wanted e then begin
            incr shown;
            Format.printf "%a@." Cup_sim.Trace.pp_event e
          end
      | Reader.Scale_record _ ->
          incr bad;
          Printf.eprintf
            "line %d: scale-runner record, not a protocol event\n" n
      | Reader.Raw { error; _ } ->
          incr bad;
          Printf.eprintf "line %d: %s\n" n error
      | Reader.Malformed msg ->
          incr bad;
          Printf.eprintf "record %d: %s\n" n msg);
  if !shown > 0 then
    Printf.printf "-- %d events (%d shown%s)\n" !total !shown
      (if !bad > 0 then Printf.sprintf ", %d unparseable" !bad else "");
  let summary = Cup_obs.Analyzer.Streaming.finish streaming in
  if not no_summary then
    Format.printf "%a" (Cup_obs.Analyzer.pp_summary ~max_traces) summary;
  if !bad > 0 then begin
    Printf.eprintf "cup trace: %d unparseable line%s\n" !bad
      (if !bad = 1 then "" else "s");
    exit 1
  end;
  if summary.Cup_obs.Analyzer.orphans > 0 then begin
    Printf.eprintf "cup trace: %d orphan span%s (broken causal links)\n"
      summary.Cup_obs.Analyzer.orphans
      (if summary.Cup_obs.Analyzer.orphans = 1 then "" else "s");
    exit 1
  end

(* Lossless either way: protocol events re-encode through the codecs,
   scale-runner records through their canonical line rendering, and
   anything unrecognized is carried verbatim (an opaque record in
   binary, the raw line in JSONL) — so converting a cup-written trace
   binary→JSONL byte-matches a directly-written JSONL run, and
   JSONL→binary byte-matches a directly-written .ctrace. *)
let convert_action input output =
  let module Reader = Cup_obs.Trace_reader in
  let module Writer = Cup_obs.Binary_writer in
  match Reader.detect input with
  | Reader.Binary ->
      let oc = open_out output in
      let count = ref 0 and bad = ref 0 in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Reader.iter input ~f:(fun n item ->
              incr count;
              let line =
                match item with
                | Reader.Event e -> Some (Cup_obs.Event_json.to_string e)
                | Reader.Scale_record s -> Some (Cup_sim.Scale.trace_line s)
                | Reader.Raw { line; _ } -> Some line
                | Reader.Malformed msg ->
                    incr bad;
                    decr count;
                    Printf.eprintf "record %d: %s\n" n msg;
                    None
              in
              match line with
              | Some line ->
                  output_string oc line;
                  output_char oc '\n'
              | None -> ()));
      Printf.printf "converted %d records -> %s (JSONL)\n" !count output;
      if !bad > 0 then begin
        Printf.eprintf "cup trace convert: trace truncated or corrupt\n";
        exit 1
      end
  | Reader.Jsonl ->
      let w = Writer.to_file output in
      Fun.protect
        ~finally:(fun () -> Writer.close w)
        (fun () ->
          Reader.iter input ~f:(fun _ item ->
              match item with
              | Reader.Event e -> Writer.emit_event w e
              | Reader.Scale_record s -> Writer.emit_scale w s
              | Reader.Raw { line; _ } -> Writer.emit_line w line
              | Reader.Malformed _ -> assert false));
      Printf.printf "converted %d records -> %s (binary)\n" (Writer.records w)
        output

let mk_trace_term ~print_events_default ~allow_convert =
  (* One [pos_all] so [cup trace FILE] and [cup trace convert IN OUT]
     share the command: Cmdliner's [Cmd.group ~default] would swallow
     the filename as an unknown sub-command, so the dispatch on the
     first positional is done by hand. *)
  let args =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TRACE"
          ~doc:
            "Protocol trace written by $(b,cup run --trace-out) — JSONL \
             or binary .ctrace, detected from the file header.  Or \
             $(b,convert) $(i,IN) $(i,OUT) to convert a trace between \
             the two formats.")
  in
  let key_filter =
    Arg.(
      value
      & opt (some int) None
      & info [ "key" ] ~docv:"K"
          ~doc:
            "Only print events touching key $(docv) (implies printing \
             events; the analysis still covers the whole trace).")
  in
  let print_events =
    Arg.(
      value & flag
      & info [ "events" ]
          ~doc:"Pretty-print every event before the analysis.")
  in
  let no_summary =
    Arg.(
      value & flag
      & info [ "no-summary" ]
          ~doc:
            "Skip the propagation-tree analysis output (orphan spans and \
             unparseable lines still fail the exit status).")
  in
  let max_traces =
    Arg.(
      value & opt int 5
      & info [ "max-traces" ] ~docv:"N"
          ~doc:
            "Show the $(docv) largest propagation trees with their \
             critical paths.")
  in
  let dispatch args key_filter print_events no_summary max_traces =
    let require_file path k =
      if Sys.file_exists path && not (Sys.is_directory path) then k ()
      else `Error (false, Printf.sprintf "%s: no such file" path)
    in
    match args with
    | [ "convert"; input; output ] when allow_convert ->
        require_file input (fun () ->
            try `Ok (convert_action input output)
            with Sys_error msg ->
              prerr_endline ("cup trace: " ^ msg);
              exit 1)
    | "convert" :: rest when allow_convert ->
        `Error
          ( true,
            Printf.sprintf "convert expects IN and OUT, got %d argument%s"
              (List.length rest)
              (if List.length rest = 1 then "" else "s") )
    | [ file ] ->
        require_file file (fun () ->
            `Ok
              (trace_action ~print_events_default file key_filter print_events
                 no_summary max_traces))
    | [] -> `Error (true, "a TRACE file is required")
    | _ :: _ -> `Error (true, "too many arguments")
  in
  Term.(
    ret
      (const dispatch $ args $ key_filter $ print_events $ no_summary
     $ max_traces))

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Analyze a protocol trace (JSONL or binary): reconstruct every \
          propagation tree from its causal span links and report depth, \
          fan-out, critical paths, latency percentiles and a per-key \
          summary.  $(b,cup trace convert) $(i,IN) $(i,OUT) instead \
          converts a trace between JSONL and the compact binary .ctrace \
          format, losslessly in both directions: the output byte-matches \
          what a run writing that format directly would have produced.")
    (mk_trace_term ~print_events_default:false ~allow_convert:true)

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Pretty-print a protocol trace (JSONL or binary), then analyze \
          it (alias of $(b,cup trace --events)).")
    (mk_trace_term ~print_events_default:true ~allow_convert:false)

(* {1 cup scale} *)

(* The batch-synchronous sharded runner: everything printed before the
   final "wallclock:" line is deterministic and byte-identical across
   --shards values (CI compares shards=1 against shards=4). *)
let scale_cmd =
  let module Scale = Cup_sim.Scale in
  let nodes =
    Arg.(
      value & opt int Scale.default.nodes
      & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of ring nodes.")
  in
  let keys =
    Arg.(
      value & opt int Scale.default.keys
      & info [ "k"; "keys" ] ~docv:"N" ~doc:"Number of keys in the index.")
  in
  let rate =
    Arg.(
      value & opt float Scale.default.rate
      & info [ "rate" ] ~docv:"Q/S" ~doc:"Network-wide query rate (Poisson).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Partition the run across $(docv) domains with a conservative \
             time-window synchronizer.  Results are byte-identical for \
             every value; only wall-clock time changes.")
  in
  let duration =
    Arg.(
      value & opt float Scale.default.query_duration
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Query-posting window length.")
  in
  let lifetime =
    Arg.(
      value & opt float Scale.default.lifetime
      & info [ "lifetime" ] ~docv:"SECONDS"
          ~doc:"Entry lifetime; authorities refresh every lifetime/2.")
  in
  let replicas =
    Arg.(
      value & opt int Scale.default.replicas
      & info [ "replicas" ] ~docv:"N" ~doc:"Replicas per key.")
  in
  let zipf =
    Arg.(
      value & opt float Scale.default.zipf
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Key-popularity Zipf exponent (0 = uniform).")
  in
  let topk =
    Arg.(
      value
      & opt int Topk.default_k
      & info [ "top-k" ] ~docv:"K"
          ~doc:"Entries per attribution table (with --attribution).")
  in
  let action seed nodes keys rate shards duration lifetime replicas zipf
      trace_out attribution by topk top_out =
    let cfg =
      {
        Scale.default with
        seed;
        nodes;
        keys;
        rate;
        shards;
        query_duration = duration;
        lifetime;
        replicas;
        zipf;
        attribution = max 0 attribution;
      }
    in
    let count = ref 0 in
    (* Suffix picks the sink: .ctrace streams compact binary records
       through the background writer (the engine never formats or
       blocks on disk); anything else writes the canonical JSONL. *)
    let open_trace path =
      try
        if Filename.check_suffix path ".ctrace" then begin
          let w = Cup_obs.Binary_writer.to_file path in
          ( path,
            (fun ev ->
              incr count;
              Cup_obs.Binary_writer.emit_scale w ev),
            fun () -> Cup_obs.Binary_writer.close w )
        end
        else begin
          let oc = open_out path in
          ( path,
            (fun ev ->
              incr count;
              output_string oc (Scale.trace_line ev);
              output_char oc '\n'),
            fun () -> close_out oc )
        end
      with Sys_error msg ->
        prerr_endline ("cup scale: " ^ msg);
        exit 1
    in
    let out = Option.map open_trace trace_out in
    let result =
      try Scale.run ?tracer:(Option.map (fun (_, emit, _) -> emit) out) cfg with
      | Invalid_argument msg ->
          prerr_endline ("cup scale: " ^ msg);
          exit 1
      | Out_of_memory ->
          prerr_endline "cup scale: out of memory";
          exit 1
    in
    print_string (Scale.summary result);
    (match result.Scale.attribution with
    | None -> ()
    | Some a ->
        print_newline ();
        print_attribution a ~by ~k:topk;
        (match top_out with
        | None -> ()
        | Some path -> (
            try write_top_out ~path ~k:topk a
            with Sys_error msg ->
              prerr_endline ("cup scale: " ^ msg);
              exit 1)));
    (match out with
    | None -> ()
    | Some (path, _, close) ->
        close ();
        Printf.printf "trace: %d events -> %s\n" !count path);
    Printf.printf "wallclock: %.2fs (%.0f events/s, %d shards, peak rss %d MB)\n"
      result.Scale.wallclock result.Scale.events_per_sec shards
      ((Cup_obs.Resource.snapshot ()).Cup_obs.Resource.peak_rss_bytes
      / (1024 * 1024))
  in
  let term =
    Term.(
      const action $ seed $ nodes $ keys $ rate $ shards $ duration $ lifetime
      $ replicas $ zipf $ trace_out $ attribution_arg $ by_arg $ topk
      $ top_out_arg)
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Run CUP at very large network sizes: protocol state in packed \
          (node, key) tables over an arithmetic ring overlay, optionally \
          sharded across domains.  Output (and --trace-out) is \
          byte-identical for every --shards value.")
    term

(* {1 cup top}

   Run one scenario (or a fan of consecutive seeds) with cost
   attribution attached and report the heavy hitters.  The fan-out
   exercises the sketch's exact merge the same way [Registry.merge]
   backs the experiment fan-out: per-seed sketches are folded in seed
   order, so output is byte-identical at every --jobs count. *)

let top_cmd =
  let keys =
    Arg.(
      value & opt int 64
      & info [ "keys" ] ~docv:"N"
          ~doc:"Number of keys in the global index.")
  in
  let topk =
    Arg.(
      value
      & opt int Topk.default_k
      & info [ "k"; "top-k" ] ~docv:"K"
          ~doc:"Entries to display per table.")
  in
  let capacity =
    Arg.(
      value
      & opt int Attribution.default_config.capacity
      & info [ "capacity" ] ~docv:"C"
          ~doc:
            "Sketch capacity per axis.  Below $(docv) distinct ids the \
             counts are exact; beyond it the space-saving bound applies \
             (err column) and memory stays O($(docv)).")
  in
  let seeds =
    Arg.(
      value & opt int 1
      & info [ "seeds" ] ~docv:"N"
          ~doc:
            "Aggregate attribution over $(docv) consecutive seeds, fanned \
             across --jobs domains and merged exactly in seed order.")
  in
  let action seed nodes keys rate duration lifetime replicas policy overlay
      zipf seeds jobs by topk capacity top_out =
    if seeds < 1 then begin
      prerr_endline "cup top: --seeds must be >= 1";
      exit 1
    end;
    if capacity < 1 then begin
      prerr_endline "cup top: --capacity must be >= 1";
      exit 1
    end;
    let cfg =
      {
        (scenario_of ~seed ~nodes ~keys ~rate ~duration ~lifetime ~replicas
           ~policy ~overlay)
        with
        key_dist = (if zipf = 0. then `Uniform else `Zipf zipf);
      }
    in
    (match Scenario.validate cfg with
    | Ok () -> ()
    | Error msg ->
        prerr_endline ("cup top: " ^ msg);
        exit 1);
    let eval s =
      let cfg = { cfg with Scenario.seed = s } in
      let live = Runner.Live.create cfg in
      let a = Attribution.create ~config:(attribution_config capacity) () in
      Runner.Live.set_attribution live (Some a);
      ignore (Runner.Live.finish live : Runner.result);
      a
    in
    let t0 = Unix.gettimeofday () in
    let seed_list = List.init seeds (fun i -> seed + i) in
    let attrs =
      with_jobs jobs (fun pool ->
          match pool with
          | Some pool -> Cup_parallel.Pool.map pool eval seed_list
          | None -> List.map eval seed_list)
    in
    let merged =
      match attrs with
      | [] -> assert false
      | first :: rest -> List.fold_left Attribution.merge first rest
    in
    print_attribution merged ~by ~k:topk;
    (match top_out with
    | None -> ()
    | Some path -> (
        try write_top_out ~path ~k:topk merged
        with Sys_error msg ->
          prerr_endline ("cup top: " ^ msg);
          exit 1));
    Printf.printf "wallclock: %.2fs (%d seeds)\n"
      (Unix.gettimeofday () -. t0)
      seeds
  in
  let term =
    Term.(
      const action $ seed $ nodes $ keys $ rate $ duration $ lifetime
      $ replicas $ policy $ overlay $ zipf $ seeds
      $ jobs $ by_arg $ topk $ capacity $ top_out_arg)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run a simulation with per-key/per-node/per-level cost attribution \
          and print the heavy hitters: miss cost, update overhead, \
          justified/unjustified deliveries and per-key rates.  Output \
          (except the wallclock line) is byte-identical across --jobs and \
          the equivalent cup scale --shards run.")
    term

(* {1 cup sweep} *)

let sweep_cmd =
  let action full rate jobs =
    if not (Float.is_finite rate && rate > 0.) then begin
      prerr_endline "cup sweep: --rate must be finite and > 0";
      exit 1
    end;
    let _, grid = E.push_levels (if full then E.Full else E.Scaled) ~rate in
    let cells = with_jobs jobs (fun pool -> E.run_grid ?pool grid) in
    E.print_push_level ~log_y:false
      ~title:(Printf.sprintf "push-level sweep, %g q/s" rate)
      [ (rate, cells) ]
  in
  let term = Term.(const action $ full $ rate $ jobs) in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep the push level at one query rate (Figures 3/4 style).")
    term

(* {1 cup exp} *)

let exp_cmd =
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NAME"
          ~doc:
            ("Experiments to run, always in this order (default: all): "
            ^ String.concat ", " E.names ^ "."))
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:"Also write the experiments' CSV files into $(docv).")
  in
  let action full jobs csv_dir names =
    let names = if names = [] then E.names else names in
    (match List.filter (fun n -> not (List.mem n E.names)) names with
    | [] -> ()
    | unknown ->
        Printf.eprintf "cup exp: unknown experiment %s; known: %s\n"
          (String.concat ", " unknown)
          (String.concat " " E.names);
        exit 2);
    let scale = if full then E.Full else E.Scaled in
    match with_jobs jobs (fun pool -> E.print ?pool ?csv_dir scale names) with
    | () -> print_string "\ndone.\n"
    | exception Sys_error msg ->
        Printf.eprintf "cup exp: %s\n" msg;
        exit 1
  in
  let term = Term.(const action $ full $ jobs $ csv_dir $ names) in
  Cmd.v
    (Cmd.info "exp"
       ~doc:
         "Run the paper's experiments by name and print their tables and \
          figures.")
    term

(* {1 cup fuzz}

   Deterministic swarm-testing sweep: every verdict line is a pure
   function of the seed range, whatever --jobs says — only the final
   "wallclock:" line (trivially filterable) varies across hosts. *)

let fuzz_cmd =
  let seeds =
    Arg.(
      value & opt int 200
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Number of consecutive fuzz seeds to run.")
  in
  let seed_start =
    Arg.(
      value & opt int 0
      & info [ "seed-start" ] ~docv:"N" ~doc:"First fuzz seed of the range.")
  in
  let one_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Replay a single fuzz seed (shorthand for --seed-start N \
             --seeds 1): the scenario, run and verdict are byte-identical \
             to what seed N produced inside any larger sweep.")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:
            "Report failures as generated, without minimizing them first.")
  in
  let action seeds seed_start one_seed no_shrink jobs =
    if seeds < 1 then begin
      prerr_endline "cup fuzz: --seeds must be >= 1";
      exit 1
    end;
    let seed_start, seeds =
      match one_seed with Some s -> (s, 1) | None -> (seed_start, seeds)
    in
    let t0 = Unix.gettimeofday () in
    let summary =
      with_jobs jobs (fun pool ->
          Cup_sim.Fuzz.run_seeds ~exec:Cup_obs.Fuzz_oracle.execute ?pool
            ~shrink_failures:(not no_shrink) ~seed_start ~seeds ())
    in
    let wall = Unix.gettimeofday () -. t0 in
    Printf.printf "fuzz: seeds [%d, %d): %d passed, %d failed, %d events \
                   audited\n"
      seed_start (seed_start + seeds) summary.passed
      (List.length summary.failures)
      summary.total_events;
    List.iter
      (fun (f : Cup_sim.Fuzz.failure) ->
        Printf.printf "FAIL seed %d: [%s %s] t=%.6g: %s\n" f.seed f.fail.code
          f.fail.invariant f.fail.at f.fail.detail;
        Printf.printf "  repro: %s\n" (Cup_sim.Fuzz.repro_command f.scenario);
        match f.shrunk with
        | None -> ()
        | Some (cfg, sf) ->
            Printf.printf "  shrunk (%d nodes, [%s %s]): %s\n"
              cfg.Scenario.nodes sf.code sf.invariant
              (Cup_sim.Fuzz.repro_command cfg))
      summary.failures;
    (* Host timing, outside the byte-compared determinism block: every
       line carries the [wallclock] prefix CI strips, and the slowest
       seeds surface outliers in big harvests. *)
    List.iter
      (fun (seed, ms) -> Printf.printf "wallclock seed %d: %.1f ms\n" seed ms)
      summary.timings;
    Printf.printf "wallclock: %.2fs (%.1f seeds/s)\n" wall
      (float_of_int seeds /. Float.max wall 1e-9);
    if summary.failures <> [] then exit 3
  in
  let term =
    Term.(const action $ seeds $ seed_start $ one_seed $ no_shrink $ jobs)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Sweep randomized fault-injection scenarios under the invariant \
          auditor; shrink and report any failure as a pasteable repro.")
    term

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "cup" ~version:"1.0.0"
      ~doc:
        "CUP: Controlled Update Propagation in peer-to-peer networks — \
         simulator and experiment runner."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            run_cmd;
            scale_cmd;
            top_cmd;
            sweep_cmd;
            exp_cmd;
            fuzz_cmd;
            trace_cmd;
            replay_cmd;
          ]))
