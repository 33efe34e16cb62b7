(* Benchmark harness: engine throughput, fault repair, scale,
   overlay-build and per-event-time growth, attribution overhead,
   trace I/O, the parallel harness, micro-benchmarks of the hot data
   structures and the fuzz sweep.  The paper's tables and figures are
   printed by `cup exp` (Cup_sim.Experiments.print).

   Usage:
     dune exec bench/main.exe                     # every default target, scaled
     dune exec bench/main.exe -- profile faults   # selected targets
     dune exec bench/main.exe -- --full           # paper-scale runs
     dune exec bench/main.exe -- fuzz --jobs 4    # fan runs over 4 domains
     dune exec bench/main.exe -- harness          # sequential-vs-parallel timing
     dune exec bench/main.exe -- scale            # 10k/100k/1M-node sharded runs
     dune exec bench/main.exe -- scale-smoke      # 10k only (CI)
     dune exec bench/main.exe -- attribution      # K=100 overhead + O(K) memory
     dune exec bench/main.exe -- trace-io         # sink throughput + analyzer RSS
     dune exec bench/main.exe -- overlay-growth   # build time vs n, log-log slope
     dune exec bench/main.exe -- time-growth      # events/s, 150 vs 1200 s window

   An unknown target or option exits 2; an unknown target's message
   lists the targets.

   [scale], [scale-smoke], [time-growth] and [attribution] are
   explicit-only (never part of the default target set).  The scale
   targets record events/sec and peak RSS through the ring-overlay
   scale runner and cross-check that sharded runs are byte-identical
   to shards=1.  [overlay-growth] runs with the default set at
   n <= 2^15 and adds its 2^20 builds only when named.

   Independent simulator runs fan out across a Cup_parallel domain
   pool ([--jobs N]; default: one job per core, [--jobs 1] is fully
   sequential).  Results are byte-identical whatever the job count.
   Every invocation writes BENCH_harness.json — wall time per target,
   the job count, and (for the [harness] and [micro] targets) measured
   speedup and data-structure timings — so perf changes leave a
   machine-readable trail. *)

module E = Cup_sim.Experiments
module Table = Cup_report.Table
module Pool = Cup_parallel.Pool
module Json = Cup_obs.Json
module Resource = Cup_obs.Resource

(* Accumulated for BENCH_harness.json, in execution order: name, wall
   seconds, and the process-resource snapshots bracketing the target
   (peak RSS so far plus GC deltas — host-dependent, so they live next
   to the equally host-dependent wall time, never in a byte-compared
   artifact). *)
let target_timings :
    (string * float * Resource.snapshot * Resource.snapshot) list ref =
  ref []
let harness_json : (string * Json.t) list ref = ref []
let faults_json : (string * Json.t) list ref = ref []
let scale_json : (string * Json.t) list ref = ref []
let attribution_json : (string * Json.t) list ref = ref []
let trace_io_json : (string * Json.t) list ref = ref []
let micro_json : (string * float) list ref = ref []
let metrics_json : (string * float) list ref = ref []
let fuzz_json : (string * Json.t) list ref = ref []
let overlay_growth_json : (string * Json.t) list ref = ref []
let time_growth_json : (string * Json.t) list ref = ref []

let section = E.section

let scale_label = function E.Scaled -> "scaled" | E.Full -> "full (paper-scale)"

(* {1 Engine throughput and profiling probes} *)

(* Events/sec and heap high-water per named scenario: the baseline
   every perf PR measures itself against (BENCH_*.json trajectories). *)
let profile_targets scale =
  let module Scenario = Cup_sim.Scenario in
  let module Policy = Cup_proto.Policy in
  let nodes, rate =
    match scale with E.Scaled -> (256, 4.) | E.Full -> (1024, 10.)
  in
  let base =
    {
      Scenario.default with
      nodes;
      total_keys_override = Some 1;
      query_rate = rate;
      query_duration = 1000.;
    }
  in
  [
    ("cup-second-chance", Scenario.with_policy base Policy.second_chance);
    ("standard-caching", Scenario.with_policy base Policy.Standard_caching);
    ( "token-bucket",
      Scenario.with_policy
        {
          base with
          replicas_per_key = 5;
          replica_lifetime = 60.;
          capacity_mode = Scenario.Token_bucket 0.5;
        }
        Policy.second_chance );
    ( "zipf-16-keys",
      Scenario.with_policy
        { base with total_keys_override = Some 16; key_dist = `Zipf 0.9 }
        Policy.second_chance );
  ]

let print_profiles scale =
  let table =
    Table.create ~title:"Engine throughput (profiling probes enabled)"
      ~columns:
        [ "scenario"; "engine events"; "wallclock (s)"; "events/sec";
          "heap high-water" ]
  in
  let rows =
    List.map
      (fun (name, cfg) ->
        let live = Cup_sim.Runner.Live.create cfg in
        Cup_dess.Engine.enable_profiling (Cup_sim.Runner.Live.engine live);
        let r = Cup_sim.Runner.Live.finish live in
        let high_water =
          match r.profile with
          | Some p -> p.Cup_dess.Engine.heap_high_water
          | None -> 0
        in
        Table.add_row table
          [
            name;
            Table.cell_int r.engine_events;
            Printf.sprintf "%.3f" r.wallclock;
            Printf.sprintf "%.0f" r.events_per_sec;
            Table.cell_int high_water;
          ];
        (name, r))
      (profile_targets scale)
  in
  Table.print table;
  List.iter
    (fun (name, (r : Cup_sim.Runner.result)) ->
      match r.profile with
      | Some p ->
          Printf.printf "\n%s, per-label host time:\n" name;
          Format.printf "%a@." Cup_dess.Engine.pp_profile p
      | None -> ())
    rows

(* {1 Fault injection: repair and message accounting} *)

(* One crash+loss scenario: the run must complete with its transport
   counters balanced, and the repair machinery must fire (a message is
   lost and a subscription repaired); either failure exits 1.  This is
   the bench-side witness of the fault-tolerance contract. *)
let faults scale =
  let module Scenario = Cup_sim.Scenario in
  let module Policy = Cup_proto.Policy in
  let module C = Cup_metrics.Counters in
  let base = E.base_scenario scale in
  let r =
    Cup_sim.Runner.run
      (Scenario.with_policy
         {
           base with
           Scenario.crashes =
             Some
               { Scenario.crash_rate = 0.02; recover_after = 20.; warmup = 30. };
           loss = Some { Scenario.drop = 0.15; jitter = 0.5 };
         }
         Policy.second_chance)
  in
  let c = r.counters in
  let table =
    Table.create ~title:"Fault injection: crash+loss run"
      ~columns:[ "lost"; "retries"; "repairs"; "unreachable"; "events/sec" ]
  in
  Table.add_row table
    [
      Table.cell_int (C.lost_messages c);
      Table.cell_int (C.retries c);
      Table.cell_int (C.repairs c);
      Table.cell_int (C.unreachable c);
      Printf.sprintf "%.0f" r.events_per_sec;
    ];
  Table.print table;
  let repaired = C.lost_messages c > 0 && C.repairs c > 0 in
  (* Message conservation over the transport counters: everything sent
     was delivered or lost, and nothing is still in flight once the
     engine has drained — the same V1 identity [cup run --audit]
     enforces online. *)
  let conserved =
    C.in_flight c = 0 && C.sent c = C.delivered c + C.transport_lost c
  in
  Printf.printf "message conservation (sent = delivered + lost): %s\n"
    (if conserved then "yes" else "NO (accounting leak)");
  faults_json :=
    [
      ("workload", Json.String "crash 0.02/s + loss 0.15 over base scenario");
      ("repair_machinery_fired", Json.Bool repaired);
      ("conservation_holds", Json.Bool conserved);
      ("lost", Json.Int (C.lost_messages c));
      ("retries", Json.Int (C.retries c));
      ("repairs", Json.Int (C.repairs c));
      ("unreachable", Json.Int (C.unreachable c));
      ("events_per_sec", Json.Float r.events_per_sec);
    ];
  if not conserved then
    prerr_endline
      "faults: transport counters violate sent = delivered + lost with \
       in_flight = 0 — message accounting leaks";
  if not repaired then
    prerr_endline
      "faults: the repair machinery never fired (no message lost, or no \
       subscription repaired)";
  if not (conserved && repaired) then exit 1

(* {1 Scale: batch-synchronous sharded runs up to a million nodes} *)

(* The ISSUE-7 tentpole record: events/sec and peak RSS at 10k / 100k /
   1M nodes through the ring-overlay scale runner,
   plus the shard byte-identity witness — shards=4 must reproduce the
   shards=1 summary (and, at 10k, the full JSONL trace) byte for byte.
   Runs in increasing size order so the per-size VmHWM snapshots are
   meaningful despite peak RSS being monotone across the process.

   Not part of the [all] target set: the 1M run costs real time and
   memory, so it only runs when named explicitly ([scale]; [scale-smoke]
   is the 10k-only variant CI uses). *)
let scale_configs which =
  let module Scale = Cup_sim.Scale in
  let mk name nodes keys rate identity =
    (name, { Scale.default with Scale.nodes; keys; rate }, identity)
  in
  match which with
  | `Smoke -> [ mk "scale-10k" 10_000 512 2_000. `Trace ]
  | `Full ->
      [
        mk "scale-10k" 10_000 512 2_000. `Trace;
        mk "scale-100k" 100_000 2_048 5_000. `Summary;
        mk "scale-1m" 1_000_000 8_192 10_000. `None;
      ]

let scale_runs which =
  let module Scale = Cup_sim.Scale in
  (* O(1)-memory trace comparison: chain a digest over the line stream
     instead of buffering megabytes of JSONL. *)
  let observe ~traced cfg =
    let digest = ref "" and lines = ref 0 in
    let tracer =
      if traced then
        Some
          (fun ev ->
            incr lines;
            digest := Digest.string (!digest ^ Scale.trace_line ev))
      else None
    in
    let r = Scale.run ?tracer cfg in
    (r, Scale.summary r, !digest, !lines)
  in
  (* Binary-traced repeat of each config: the [.ctrace] writer encodes
     on the simulation thread and writes on its own background thread,
     so the numbers that matter are the traced wall time relative to
     untraced (the tracing-overhead contract), the trace bytes written
     and how often the producer stalled waiting for the disk. *)
  let observe_binary cfg =
    let module Bw = Cup_obs.Binary_writer in
    let path = Filename.temp_file "cup-scale" ".ctrace" in
    let w = Bw.to_file path in
    let r = Scale.run ~tracer:(Bw.emit_scale w) cfg in
    Bw.close w;
    Sys.remove path;
    (r, Bw.bytes_written w, Bw.stalls w)
  in
  let table =
    Table.create ~title:"Scale runs (ring overlay, shards=1)"
      ~columns:
        [ "config"; "nodes"; "events"; "wall (s)"; "events/sec";
          "peak RSS (MB)"; "live slots"; "traced wall (s)"; "trace MB";
          "stalls"; "overhead" ]
  in
  let rows =
    List.map
      (fun (name, (cfg : Scale.config), identity) ->
        let traced = identity = `Trace in
        let r1, summary1, digest1, lines1 = observe ~traced cfg in
        let rss = (Resource.snapshot ()).Resource.peak_rss_bytes in
        (* The digest-traced run pays for the MD5 chain, so the
           overhead baseline is a clean untraced run when [r1] was
           traced.  Below 1M nodes the overhead ratio comes from
           interleaved untraced/traced pairs with a min over each arm:
           these walls are a few seconds on a shared host, where
           scheduler drift between two distant samples can exceed the
           tracing cost itself. *)
        let repeats = if cfg.Scale.nodes >= 1_000_000 then 1 else 3 in
        let untraced_samples = ref [] and binary_samples = ref [] in
        for i = 1 to repeats do
          let u =
            if (not traced) && i = 1 then r1.Scale.wallclock
            else
              let r0, _, _, _ = observe ~traced:false cfg in
              r0.Scale.wallclock
          in
          untraced_samples := u :: !untraced_samples;
          binary_samples := observe_binary cfg :: !binary_samples
        done;
        let untraced_wall =
          List.fold_left min infinity !untraced_samples
        in
        let rb, trace_bytes, stalls =
          List.fold_left
            (fun (((ra : Scale.result), _, _) as a)
                 (((rb : Scale.result), _, _) as b) ->
              if rb.Scale.wallclock < ra.Scale.wallclock then b else a)
            (List.hd !binary_samples)
            (List.tl !binary_samples)
        in
        let overhead =
          if untraced_wall > 0. then rb.Scale.wallclock /. untraced_wall
          else 1.
        in
        Table.add_row table
          [
            name;
            Table.cell_int cfg.Scale.nodes;
            Table.cell_int r1.Scale.events;
            Printf.sprintf "%.2f" r1.Scale.wallclock;
            Printf.sprintf "%.0f" r1.Scale.events_per_sec;
            Table.cell_int (rss / (1024 * 1024));
            Table.cell_int r1.Scale.live_slots;
            Printf.sprintf "%.2f" rb.Scale.wallclock;
            Table.cell_int (trace_bytes / (1024 * 1024));
            Table.cell_int stalls;
            Printf.sprintf "%.2fx" overhead;
          ];
        let identical =
          match identity with
          | `None -> None
          | `Summary | `Trace ->
              let _, summary4, digest4, lines4 =
                observe ~traced { cfg with Scale.shards = 4 }
              in
              Some
                (String.equal summary1 summary4
                && String.equal digest1 digest4
                && lines1 = lines4)
        in
        (name, cfg, r1, rss, identical,
         (untraced_wall, rb.Scale.wallclock, trace_bytes, stalls, overhead)))
      (scale_configs which)
  in
  Table.print table;
  let all_identical =
    List.for_all
      (fun (name, _, _, _, identical, _) ->
        match identical with
        | None -> true
        | Some ok ->
            Printf.printf "%s: shards=4 byte-identical to shards=1: %s\n" name
              (if ok then "yes" else "NO (determinism violated)");
            ok)
      rows
  in
  scale_json :=
    [
      ( "workload",
        Json.String "batch-synchronous sharded runs: ring overlay" );
      ( "configs",
        Json.List
          (List.map
             (fun (name, (cfg : Scale.config), (r : Scale.result), rss,
                       identical,
                       (untraced_wall, traced_wall, trace_bytes, stalls,
                        overhead)) ->
               Json.Obj
                 ([
                    ("name", Json.String name);
                    ("nodes", Json.Int cfg.Scale.nodes);
                    ("keys", Json.Int cfg.Scale.keys);
                    ("query_rate", Json.Float cfg.Scale.rate);
                    ("windows", Json.Int r.Scale.windows);
                    ("events", Json.Int r.Scale.events);
                    ("wall_seconds", Json.Float r.Scale.wallclock);
                    ("events_per_sec", Json.Float r.Scale.events_per_sec);
                    ("peak_rss_bytes", Json.Int rss);
                    ("live_slots", Json.Int r.Scale.live_slots);
                    ( "total_cost",
                      Json.Int
                        (let t = r.Scale.totals in
                         t.Scale.query_hops + t.Scale.ft_answer_hops
                         + t.Scale.ft_proactive_hops + t.Scale.refresh_hops
                         + t.Scale.delete_hops + t.Scale.append_hops
                         + t.Scale.clear_hops) );
                    ("untraced_wall_seconds", Json.Float untraced_wall);
                    ("traced_wall_seconds", Json.Float traced_wall);
                    ("trace_bytes", Json.Int trace_bytes);
                    ("writer_stalls", Json.Int stalls);
                    ("traced_overhead", Json.Float overhead);
                  ]
                 @
                 match identical with
                 | None -> []
                 | Some ok -> [ ("sharded_identical", Json.Bool ok) ]))
             rows) );
      ("sharded_identical", Json.Bool all_identical);
    ];
  if not all_identical then begin
    prerr_endline
      "scale: sharded run diverged from shards=1 — window-synchronizer \
       determinism contract broken";
    exit 1
  end

(* {1 Overlay build growth} *)

(* Build time of each overlay against n: the median of 3 [Net.create]
   calls at each n = 2^10 .. 2^15, and the least-squares slope of
   log time on log n over those points.  An O(n log n) build fits a
   little above 1 (GC and cache effects push it up); an O(n^2) build
   fits about 2.  With [~big], each overlay also builds once at 2^20,
   a point kept out of the fit so the slope means the same either
   way. *)
let overlay_growth ~big =
  let module Net = Cup_overlay.Net in
  let kinds =
    [
      ("can_random", Net.Can `Random);
      ("can_grid", Net.Can `Grid);
      ("chord", Net.Chord);
    ]
  in
  let fit_ns = List.init 6 (fun i -> 1 lsl (10 + i)) in
  let build kind n =
    Gc.compact ();
    let rng = Cup_prng.Rng.create ~seed:n in
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (Net.create ~rng ~kind ~n ()));
    Unix.gettimeofday () -. t0
  in
  let median_build kind n =
    let s = Array.init 3 (fun _ -> build kind n) in
    Array.sort compare s;
    s.(1)
  in
  let slope points =
    let xy = List.map (fun (n, s) -> (log (float_of_int n), log s)) points in
    let mean f =
      List.fold_left (fun a p -> a +. f p) 0. xy /. float_of_int (List.length xy)
    in
    let mx = mean fst and my = mean snd in
    let sxy = List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0. xy in
    let sxx = List.fold_left (fun a (x, _) -> a +. ((x -. mx) *. (x -. mx))) 0. xy in
    sxy /. sxx
  in
  let results =
    List.map
      (fun (name, kind) ->
        (* untimed: the first build also pays for growing the heap *)
        ignore (build kind (List.hd fit_ns));
        let points = List.map (fun n -> (n, median_build kind n)) fit_ns in
        let big_point = if big then Some (build kind (1 lsl 20)) else None in
        (name, points, slope points, big_point))
      kinds
  in
  let table =
    Table.create ~title:"Overlay build seconds (median of 3) and log-log slope"
      ~columns:("n" :: List.map fst kinds)
  in
  List.iteri
    (fun i n ->
      Table.add_row table
        (string_of_int n
        :: List.map
             (fun (_, points, _, _) -> Printf.sprintf "%.4f" (snd (List.nth points i)))
             results))
    fit_ns;
  if big then
    Table.add_row table
      (string_of_int (1 lsl 20)
      :: List.map
           (fun (_, _, _, b) ->
             Printf.sprintf "%.2f (1 build)" (Option.value b ~default:nan))
           results);
  Table.add_row table
    ("slope" :: List.map (fun (_, _, s, _) -> Printf.sprintf "%.2f" s) results);
  Table.print table;
  overlay_growth_json :=
    ( "estimator",
      Json.String
        "median of 3 builds per n; least-squares slope of log seconds on log \
         n over n = 2^10..2^15; the 2^20 point is one build, outside the fit"
    )
    :: List.map
         (fun (name, points, s, b) ->
           ( name,
             Json.Obj
               ([
                  ( "build_s",
                    Json.List
                      (List.map
                         (fun (n, sec) ->
                           Json.Obj [ ("n", Json.Int n); ("s", Json.Float sec) ])
                         points) );
                  ("slope", Json.Float s);
                ]
               @
               match b with
               | Some sec -> [ ("build_s_2e20", Json.Float sec) ]
               | None -> []) ))
         results

(* {1 Per-event cost against simulated time} *)

(* Host time per event must not grow with how long the simulated run
   has lasted.  The zipf-1k shape (1024 nodes, 1024 Zipf-0.9 keys,
   200 q/s) runs with a 150 s and a 1200 s query window, three
   interleaved repeats each.  Only the query phase is timed: an
   untimed [run_until query_start], then a timed [run_until] to the
   window's end.  The ratio of the two windows' median events/s is
   about 1 when per-event cost is flat; per-(node, key) tables whose
   chains lengthen as the run fills them pull it down. *)
let time_growth () =
  let module Scenario = Cup_sim.Scenario in
  let module Live = Cup_sim.Runner.Live in
  let module Engine = Cup_dess.Engine in
  let windows = [| 150.; 1200. |] and repeats = 3 in
  let events_per_s window =
    let sc =
      {
        Scenario.default with
        seed = 3;
        nodes = 1024;
        total_keys_override = Some 1024;
        key_dist = `Zipf 0.9;
        query_rate = 200.;
        query_duration = window;
        drain = 0.;
      }
    in
    let live = Live.create sc in
    Live.run_until live sc.query_start;
    Gc.compact ();
    let engine = Live.engine live in
    let e0 = Engine.events_executed engine in
    let t0 = Unix.gettimeofday () in
    Live.run_until live (sc.query_start +. window);
    let s = Unix.gettimeofday () -. t0 in
    float_of_int (Engine.events_executed engine - e0) /. s
  in
  let samples = Array.map (fun _ -> Array.make repeats 0.) windows in
  for r = 0 to repeats - 1 do
    Array.iteri (fun i w -> samples.(i).(r) <- events_per_s w) windows
  done;
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let medians = Array.map median samples in
  let ratio = medians.(1) /. medians.(0) in
  let table =
    Table.create
      ~title:"Query-phase events/s against query window (zipf-1k shape)"
      ~columns:[ "window s"; "events/s per repeat"; "median" ]
  in
  Array.iteri
    (fun i w ->
      Table.add_row table
        [
          Printf.sprintf "%g" w;
          String.concat " "
            (Array.to_list (Array.map (Printf.sprintf "%.0f") samples.(i)));
          Printf.sprintf "%.0f" medians.(i);
        ])
    windows;
  Table.print table;
  Printf.printf "1200 s over 150 s median events/s: %.2f\n" ratio;
  time_growth_json :=
    [
      ( "estimator",
        Json.String
          "query phase only; median events/s of 3 interleaved repeats per \
           window; ratio = 1200 s median over 150 s median" );
      ( "windows",
        Json.List
          (Array.to_list
             (Array.mapi
                (fun i w ->
                  Json.Obj
                    [
                      ("query_window_s", Json.Float w);
                      ( "events_per_s",
                        Json.List
                          (Array.to_list
                             (Array.map (fun x -> Json.Float x) samples.(i))) );
                      ("median_events_per_s", Json.Float medians.(i));
                    ])
                windows)) );
      ("ratio", Json.Float ratio);
    ]

(* {1 Attribution: hot-path overhead and O(K) memory} *)

(* The cost-attribution contract has two measurable halves: attaching
   K=100 per-axis sketches to the scale runner costs at most a few
   percent of events/sec, and sketch memory depends on K alone, not on
   catalog size.  The overhead measurement runs the two arms
   back-to-back in pairs and reports the {e median} of the per-pair
   slowdowns: on a shared host, throughput drifts by 10-20% on a
   multi-second scale, so the minima of the two arms routinely come
   from different host phases and their gap measures the phases, not
   the attribution.  Within a pair the phase largely cancels, and the
   median discards the pairs where an interference spike landed on one
   arm.  Per-arm minima are still reported for the throughput rows. *)
let attribution_bench () =
  let module Scale = Cup_sim.Scale in
  let module Attribution = Cup_metrics.Attribution in
  let k = 100 in
  let cfg =
    { Scale.default with Scale.nodes = 100_000; keys = 2_048; rate = 5_000. }
  in
  let repeats = 25 in
  let best = Array.make 2 infinity in
  let eps = Array.make 2 0. and events = Array.make 2 0 in
  let deltas = Array.make repeats 0. in
  for i = 0 to repeats - 1 do
    let wall = Array.make 2 0. in
    List.iter
      (fun (arm, attribution) ->
        Gc.compact ();
        let r = Scale.run { cfg with Scale.attribution } in
        wall.(arm) <- r.Scale.wallclock;
        if r.Scale.wallclock < best.(arm) then begin
          best.(arm) <- r.Scale.wallclock;
          eps.(arm) <- r.Scale.events_per_sec;
          events.(arm) <- r.Scale.events
        end)
      [ (0, 0); (1, k) ];
    deltas.(i) <- 100. *. ((wall.(1) /. wall.(0)) -. 1.)
  done;
  Array.sort compare deltas;
  let overhead_pct =
    let m = repeats / 2 in
    if repeats land 1 = 1 then deltas.(m)
    else (deltas.(m - 1) +. deltas.(m)) /. 2.
  in
  (* Same K over catalogs two orders of magnitude apart: the evicting
     sketches and key-coupled rate rings must report an identical
     footprint. *)
  let footprint keys =
    let r =
      Scale.run
        {
          cfg with
          Scale.nodes = 20_000;
          keys;
          rate = 2_000.;
          attribution = k;
        }
    in
    match r.Scale.attribution with
    | Some a -> Attribution.footprint_words a
    | None -> 0
  in
  let w_small = footprint 10_000 and w_large = footprint 1_000_000 in
  let table =
    Table.create ~title:"Attribution overhead (scale runner, 100k nodes)"
      ~columns:
        [ "arm"; "events"; "wall (s)"; "events/sec"; "overhead" ]
  in
  Table.add_row table
    [ "detached"; Table.cell_int events.(0); Printf.sprintf "%.2f" best.(0);
      Printf.sprintf "%.0f" eps.(0); "-" ];
  Table.add_row table
    [ Printf.sprintf "K=%d" k; Table.cell_int events.(1);
      Printf.sprintf "%.2f" best.(1); Printf.sprintf "%.0f" eps.(1);
      Printf.sprintf "%.1f%%" overhead_pct ];
  Table.print table;
  Printf.printf
    "sketch footprint at K=%d: %d words (10k-key catalog) vs %d words \
     (1M-key catalog): %s\n"
    k w_small w_large
    (if w_small = w_large then "O(K), catalog-independent"
     else "DEPENDS ON CATALOG (bound violated)");
  attribution_json :=
    [
      ( "workload",
        Json.String
          "scale runner, 100k nodes, K=100 per-axis attribution sketches" );
      ("k", Json.Int k);
      ("detached_wall_seconds", Json.Float best.(0));
      ("attached_wall_seconds", Json.Float best.(1));
      ("detached_events_per_sec", Json.Float eps.(0));
      ("attached_events_per_sec", Json.Float eps.(1));
      ("overhead_pct", Json.Float overhead_pct);
      ("overhead_estimator", Json.String "median of paired slowdowns");
      ("overhead_within_5pct", Json.Bool (overhead_pct <= 5.));
      ("footprint_words_10k_keys", Json.Int w_small);
      ("footprint_words_1m_keys", Json.Int w_large);
      ("footprint_catalog_independent", Json.Bool (w_small = w_large));
    ];
  if w_small <> w_large then begin
    prerr_endline
      "attribution: sketch footprint grew with catalog size — O(K) bound \
       broken";
    exit 1
  end

(* {1 Trace I/O: sink throughput and streaming-analyzer footprint} *)

(* One crash+loss run is captured once into memory; its protocol
   events are then replayed many times over into (a) the JSONL sink
   and (b) the binary double-buffered writer, giving events/sec and
   bytes/event per format with the simulation cost factored out.  The
   same scenario is also run end to end untraced / JSONL / binary for
   whole-run overhead, and the multi-million-event binary file is
   streamed back through {!Cup_obs.Trace_reader} +
   {!Cup_obs.Analyzer.Streaming} with heap-growth bracketing — the
   constant-memory-analyzer witness. *)
let trace_io scale =
  let module Scenario = Cup_sim.Scenario in
  let module Runner = Cup_sim.Runner in
  let module Sink = Cup_obs.Sink in
  let module Bw = Cup_obs.Binary_writer in
  let cfg =
    Scenario.with_policy
      {
        (E.base_scenario scale) with
        Scenario.crashes =
          Some { Scenario.crash_rate = 0.02; recover_after = 20.; warmup = 30. };
        loss = Some { Scenario.drop = 0.15; jitter = 0.5 };
      }
      Cup_proto.Policy.second_chance
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  (* Whole-run wall time with a given sink attached; the sink's close
     (flush / writer join) is part of the measured region — that is
     the cost a traced run actually pays. *)
  let run_with make_sink =
    let live = Runner.Live.create cfg in
    let sink = make_sink () in
    Option.iter (Sink.attach live) sink;
    time (fun () ->
        let r = Runner.Live.finish live in
        Option.iter Sink.close sink;
        r)
  in
  let capture = ref [] in
  let _ =
    run_with (fun () ->
        Some (Sink.of_callback (fun ev -> capture := ev :: !capture)))
  in
  let events = Array.of_list (List.rev !capture) in
  capture := [];
  let captured = Array.length events in
  let target =
    match scale with E.Scaled -> 1_000_000 | E.Full -> 4_000_000
  in
  let replays = max 1 ((target + captured - 1) / max 1 captured) in
  let total = replays * captured in
  let per_sec n s = if s > 0. then float_of_int n /. s else 0. in
  (* Sink-only throughput: same event array through each encoder. *)
  let (), baseline_s =
    time (fun () ->
        for _ = 1 to replays do
          Array.iter (fun ev -> ignore (Sys.opaque_identity ev)) events
        done)
  in
  let tmp_jsonl = Filename.temp_file "cup-trace-io" ".jsonl" in
  let (), jsonl_s =
    time (fun () ->
        let sink = Sink.jsonl_file tmp_jsonl in
        for _ = 1 to replays do
          Array.iter (Sink.emit sink) events
        done;
        Sink.close sink)
  in
  let jsonl_bytes = (Unix.stat tmp_jsonl).Unix.st_size in
  Sys.remove tmp_jsonl;
  let tmp_bin = Filename.temp_file "cup-trace-io" ".ctrace" in
  let w = Bw.to_file tmp_bin in
  let (), binary_s =
    time (fun () ->
        for _ = 1 to replays do
          Array.iter (Bw.emit_event w) events
        done;
        Bw.close w)
  in
  let binary_bytes = Bw.bytes_written w and stalls = Bw.stalls w in
  let speedup = if binary_s > 0. then jsonl_s /. binary_s else 1. in
  (* Stream the binary file back through the constant-memory analyzer;
     major-heap growth across the pass is the bounded-RSS witness. *)
  let module Reader = Cup_obs.Trace_reader in
  let module Analyzer = Cup_obs.Analyzer in
  Gc.full_major ();
  let heap0 = (Resource.snapshot ()).Resource.heap_words in
  let (analyzed, summary_events), analyze_s =
    time (fun () ->
        let st = Analyzer.Streaming.create () in
        let n = ref 0 in
        Reader.iter tmp_bin ~f:(fun _ord item ->
            match item with
            | Reader.Event ev ->
                incr n;
                Analyzer.Streaming.feed st ev
            | Reader.Scale_record _ | Reader.Raw _ | Reader.Malformed _ -> ());
        let s = Analyzer.Streaming.finish st in
        (!n, s.Analyzer.events))
  in
  let heap1 = (Resource.snapshot ()).Resource.heap_words in
  let heap_growth = (heap1 - heap0) * (Sys.word_size / 8) in
  Sys.remove tmp_bin;
  (* End-to-end traced runs. *)
  let _, run_untraced_s = run_with (fun () -> None) in
  let tmp = Filename.temp_file "cup-trace-io-run" ".jsonl" in
  let _, run_jsonl_s = run_with (fun () -> Some (Sink.jsonl_file tmp)) in
  Sys.remove tmp;
  let tmp = Filename.temp_file "cup-trace-io-run" ".ctrace" in
  let _, run_binary_s = run_with (fun () -> Some (Sink.binary_file tmp)) in
  Sys.remove tmp;
  let overhead s =
    if run_untraced_s > 0. then s /. run_untraced_s else 1.
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Trace sinks: %d captured events replayed to %d emits" captured
           total)
      ~columns:[ "sink"; "wall (s)"; "events/sec"; "bytes/event"; "stalls" ]
  in
  Table.add_row table
    [ "none"; Printf.sprintf "%.3f" baseline_s;
      Printf.sprintf "%.0f" (per_sec total baseline_s); "-"; "-" ];
  Table.add_row table
    [ "jsonl"; Printf.sprintf "%.3f" jsonl_s;
      Printf.sprintf "%.0f" (per_sec total jsonl_s);
      Printf.sprintf "%.1f" (float_of_int jsonl_bytes /. float_of_int total);
      "-" ];
  Table.add_row table
    [ "binary"; Printf.sprintf "%.3f" binary_s;
      Printf.sprintf "%.0f" (per_sec total binary_s);
      Printf.sprintf "%.1f" (float_of_int binary_bytes /. float_of_int total);
      string_of_int stalls ];
  Table.print table;
  Printf.printf "binary vs jsonl: %.2fx events/sec\n" speedup;
  Printf.printf
    "streaming analyzer: %d events in %.3fs (%.0f events/sec), major-heap \
     growth %d KiB\n"
    analyzed analyze_s (per_sec analyzed analyze_s) (heap_growth / 1024);
  Printf.printf
    "end-to-end run: untraced %.3fs, jsonl %.3fs (%.2fx), binary %.3fs \
     (%.2fx)\n"
    run_untraced_s run_jsonl_s (overhead run_jsonl_s) run_binary_s
    (overhead run_binary_s);
  assert (summary_events = analyzed);
  let sink_obj seconds bytes st =
    Json.Obj
      ([
         ("seconds", Json.Float seconds);
         ("events_per_sec", Json.Float (per_sec total seconds));
       ]
      @ (match bytes with
        | None -> []
        | Some b ->
            [
              ("bytes", Json.Int b);
              ( "bytes_per_event",
                Json.Float (float_of_int b /. float_of_int total) );
            ])
      @ match st with None -> [] | Some s -> [ ("writer_stalls", Json.Int s) ])
  in
  trace_io_json :=
    [
      ( "workload",
        Json.String "crash+loss protocol event stream, captured then replayed"
      );
      ("captured_events", Json.Int captured);
      ("replayed_events", Json.Int total);
      ("untraced", sink_obj baseline_s None None);
      ("jsonl", sink_obj jsonl_s (Some jsonl_bytes) None);
      ("binary", sink_obj binary_s (Some binary_bytes) (Some stalls));
      ("binary_vs_jsonl_speedup", Json.Float speedup);
      ("run_untraced_seconds", Json.Float run_untraced_s);
      ("run_jsonl_seconds", Json.Float run_jsonl_s);
      ("run_jsonl_overhead", Json.Float (overhead run_jsonl_s));
      ("run_binary_seconds", Json.Float run_binary_s);
      ("run_binary_overhead", Json.Float (overhead run_binary_s));
      ( "analyzer",
        Json.Obj
          [
            ("events", Json.Int analyzed);
            ("seconds", Json.Float analyze_s);
            ("events_per_sec", Json.Float (per_sec analyzed analyze_s));
            ("major_heap_growth_bytes", Json.Int heap_growth);
            ( "peak_rss_bytes",
              Json.Int (Resource.snapshot ()).Resource.peak_rss_bytes );
          ] );
    ];
  if speedup < 3.0 then
    Printf.eprintf
      "trace-io: WARNING: binary sink only %.2fx the JSONL sink — below the \
       3x contract\n%!"
      speedup

(* {1 Parallel-harness speedup measurement} *)

(* Time one grid fan-out sequentially and across the pool: Table 1's
   40 policy x rate cells, long enough (about a second sequential) that
   the speedup is not pool start-up and noise.  The same-results check
   and the measured speedup go to BENCH_harness.json.  This is the
   perf-trajectory anchor: re-run [harness] before and after a perf
   change. *)
let harness ?pool scale =
  let grid = List.assoc "table1" (E.table1.grids scale) in
  let cells =
    List.fold_left (fun n (_, points) -> n * List.length points) 1 grid.E.axes
  in
  let workload pool = E.run_grid ?pool grid in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let seq, seq_s = time (fun () -> workload None) in
  let jobs = match pool with None -> 1 | Some p -> Pool.jobs p in
  let par, par_s = time (fun () -> workload pool) in
  let deterministic = seq = par in
  let speedup = if par_s > 0. then seq_s /. par_s else 1. in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "Harness: Table 1 grid (%d cells), 1 vs %d job(s)"
           cells jobs)
      ~columns:[ "jobs"; "wall (s)"; "speedup"; "same results" ]
  in
  Table.add_row table
    [ "1"; Printf.sprintf "%.2f" seq_s; Table.cell_float 1.0; "-" ];
  Table.add_row table
    [
      string_of_int jobs;
      Printf.sprintf "%.2f" par_s;
      Table.cell_float speedup;
      (if deterministic then "yes" else "NO (determinism violated)");
    ];
  Table.print table;
  (* A speedup below 1.0 with more than one job means the pool is
     actively hurting: record it loudly instead of silently shipping a
     regression in the JSON trail. *)
  let degraded = jobs > 1 && par_s > seq_s in
  harness_json :=
    [
      ("workload", Json.String (Printf.sprintf "table1 grid, %d cells" cells));
      ("sequential_seconds", Json.Float seq_s);
      ("parallel_seconds", Json.Float par_s);
      ("jobs", Json.Int jobs);
      ("speedup", Json.Float speedup);
      ("degraded", Json.Bool degraded);
      ("deterministic", Json.Bool deterministic);
    ];
  if degraded then
    Printf.eprintf
      "harness: WARNING: parallel wall time (%.2fs at %d jobs) exceeds \
       sequential (%.2fs) — domain-pool overhead dominates this workload\n%!"
      par_s jobs seq_s;
  if not deterministic then begin
    prerr_endline
      "harness: parallel grid diverged from sequential grid — \
       determinism contract broken";
    exit 1
  end

(* {1 Micro-benchmarks (Bechamel)} *)

(* An update queue pre-filled with [pending] live refreshes; each
   measured run pushes one more and pops the best, so the queue stays
   at [pending] items and the timing isolates enqueue/dequeue cost at
   that depth. *)
let queue_at_depth_test ~key ~pending =
  let open Bechamel in
  let q = Cup_proto.Update_queue.create Cup_proto.Update_queue.Latency_first in
  let mk_update i =
    let entry =
      Cup_proto.Entry.make
        ~replica:(Cup_proto.Replica_id.of_int (i mod 64))
        ~expiry:
          (Cup_dess.Time.of_seconds (float_of_int (1_000_000 + (i * 13 mod 997))))
    in
    Cup_proto.Update.refresh ~key ~entry ~level:(i mod 4)
  in
  for i = 0 to pending - 1 do
    Cup_proto.Update_queue.push q (mk_update i)
  done;
  let counter = ref pending in
  Test.make
    ~name:(Printf.sprintf "update-queue push+pop @%d pending" pending)
    (Staged.stage (fun () ->
         incr counter;
         Cup_proto.Update_queue.push q (mk_update !counter);
         ignore (Cup_proto.Update_queue.pop q ~now:Cup_dess.Time.zero)))

let micro () =
  let open Bechamel in
  let rng = Cup_prng.Rng.create ~seed:99 in
  let topo =
    Cup_overlay.Topology.create ~rng ~n:256 ~placement:`Random ()
  in
  let ids = Array.of_list (Cup_overlay.Topology.node_ids topo) in
  let key = Cup_overlay.Key.of_int 7 in
  let point = Cup_overlay.Key.to_point key in
  let heap_test =
    Test.make ~name:"event-heap push+pop x100"
      (Staged.stage (fun () ->
           let h = Cup_dess.Event_heap.create () in
           for i = 0 to 99 do
             ignore
               (Cup_dess.Event_heap.push h
                  ~time:(Cup_dess.Time.of_seconds (float_of_int (i * 7 mod 101)))
                  i)
           done;
           while not (Cup_dess.Event_heap.is_empty h) do
             ignore (Cup_dess.Event_heap.take_top h)
           done))
  in
  let route_test =
    Test.make ~name:"CAN route (256 nodes)"
      (Staged.stage (fun () ->
           ignore (Cup_overlay.Topology.route topo ~from:ids.(0) point)))
  in
  (* Same membership (same seed), cache off vs on: the cached variant
     converges to pure hashtable hits after the first measured run. *)
  let mk_net route_cache =
    let rng = Cup_prng.Rng.create ~seed:77 in
    Cup_overlay.Net.create ~rng ~route_cache ~kind:(Cup_overlay.Net.Can `Random)
      ~n:256 ()
  in
  let net_cold = mk_net false in
  let net_cached = mk_net true in
  let net_ids = Array.of_list (Cup_overlay.Net.node_ids net_cold) in
  let route_cold_test =
    Test.make ~name:"route-cold (CAN 256, Net)"
      (Staged.stage (fun () ->
           ignore (Cup_overlay.Net.route net_cold ~from:net_ids.(0) key)))
  in
  let route_cached_test =
    Test.make ~name:"route-cached (CAN 256, Net)"
      (Staged.stage (fun () ->
           ignore (Cup_overlay.Net.route net_cached ~from:net_ids.(0) key)))
  in
  let topo_1024 =
    Cup_overlay.Topology.create ~rng ~n:1024 ~placement:`Random ()
  in
  let ids_1024 = Array.of_list (Cup_overlay.Topology.node_ids topo_1024) in
  let route_1024_test =
    Test.make ~name:"CAN route (1024 nodes)"
      (Staged.stage (fun () ->
           ignore
             (Cup_overlay.Topology.route topo_1024 ~from:ids_1024.(0) point)))
  in
  let prng_test =
    Test.make ~name:"prng float x100"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             ignore (Cup_prng.Rng.float rng)
           done))
  in
  let node_test =
    let module Store = Cup_proto.Node_store in
    let store = Store.create Store.default_config in
    let node = Cup_overlay.Node_id.of_int 0 in
    let neighbor = Cup_overlay.Node_id.of_int 1 in
    let route _ _ = Cup_overlay.Route.Forward neighbor in
    Test.make ~name:"node handle_query (cold)"
      (Staged.stage (fun () ->
           ignore
             (Store.handle_query store ~node ~now:Cup_dess.Time.zero
                ~owner:false ~route (Store.From_neighbor neighbor) key)))
  in
  let chord = Cup_overlay.Chord.create ~rng ~n:256 () in
  let chord_ids = Array.of_list (Cup_overlay.Chord.node_ids chord) in
  let chord_test =
    Test.make ~name:"Chord route (256 nodes)"
      (Staged.stage (fun () ->
           ignore (Cup_overlay.Chord.route chord ~from:chord_ids.(0) key)))
  in
  let pastry = Cup_overlay.Pastry.create ~rng ~n:256 () in
  let pastry_ids = Array.of_list (Cup_overlay.Pastry.node_ids pastry) in
  let pastry_test =
    Test.make ~name:"Pastry route (256 nodes)"
      (Staged.stage (fun () ->
           ignore (Cup_overlay.Pastry.route pastry ~from:pastry_ids.(0) key)))
  in
  let queue_test =
    Test.make ~name:"update-queue push+pop x32"
      (Staged.stage (fun () ->
           let q =
             Cup_proto.Update_queue.create Cup_proto.Update_queue.Latency_first
           in
           for i = 0 to 31 do
             let entry =
               Cup_proto.Entry.make
                 ~replica:(Cup_proto.Replica_id.of_int i)
                 ~expiry:(Cup_dess.Time.of_seconds (float_of_int (100 + (i * 13 mod 50))))
             in
             Cup_proto.Update_queue.push q
               (Cup_proto.Update.refresh ~key ~entry ~level:1)
           done;
           while
             Cup_proto.Update_queue.pop q ~now:Cup_dess.Time.zero <> None
           do
             ()
           done))
  in
  let tests =
    Test.make_grouped ~name:"cup" ~fmt:"%s %s"
      [
        heap_test; route_test; route_1024_test;
        route_cold_test; route_cached_test; chord_test; pastry_test;
        queue_test;
        queue_at_depth_test ~key ~pending:10;
        queue_at_depth_test ~key ~pending:100;
        queue_at_depth_test ~key ~pending:1000;
        prng_test; node_test;
      ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw_results = Benchmark.all cfg instances tests in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    let results = Analyze.merge ols instances results in
    results
  in
  let results = benchmark () in
  let rows = ref [] in
  Hashtbl.iter
    (fun _metric tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some (est :: _) -> rows := (name, est) :: !rows
          | Some [] | None -> ())
        tbl)
    results;
  let rows = List.sort compare !rows in
  micro_json := rows;
  let table =
    Table.create ~title:"Micro-benchmarks (Bechamel, monotonic clock)"
      ~columns:[ "benchmark"; "ns/run" ]
  in
  List.iter
    (fun (name, est) -> Table.add_row table [ name; Printf.sprintf "%.1f" est ])
    rows;
  Table.print table

(* Metrics micro-benchmarks: the per-sample cost of the observability
   layer's histogram record and the per-merge cost of the exact
   seed-order registry fold. *)
let metrics_bench () =
  let open Bechamel in
  let module Histogram = Cup_metrics.Histogram in
  let module Registry = Cup_metrics.Registry in
  let live = Histogram.create () in
  let sample = ref 0 in
  let record_test =
    Test.make ~name:"histogram record"
      (Staged.stage (fun () ->
           incr sample;
           Histogram.add live (0.001 +. float_of_int (!sample land 1023))))
  in
  let a = Histogram.create () and b = Histogram.create () in
  for i = 0 to 999 do
    Histogram.add a (0.001 +. float_of_int (i mod 500));
    Histogram.add b (0.5 +. float_of_int ((i * 7) mod 800))
  done;
  let merge_test =
    Test.make ~name:"histogram merge (1k+1k samples)"
      (Staged.stage (fun () -> ignore (Histogram.merge a b)))
  in
  let ra = Registry.create () and rb = Registry.create () in
  List.iter
    (fun r ->
      for l = 0 to 3 do
        let h =
          Registry.histogram r
            ~labels:[ ("level", string_of_int l) ]
            "cup_update_propagation_seconds"
        in
        for i = 0 to 249 do
          Registry.observe h (0.01 +. float_of_int i)
        done
      done;
      Registry.inc ~by:1000 (Registry.counter r "cup_hops_total"))
    [ ra; rb ];
  let registry_merge_test =
    Test.make ~name:"registry merge (4-level run pair)"
      (Staged.stage (fun () -> ignore (Registry.merge ra rb)))
  in
  let counter = Registry.counter (Registry.create ()) "bench_total" in
  let counter_test =
    Test.make ~name:"registry counter inc"
      (Staged.stage (fun () -> Registry.inc counter))
  in
  let tests =
    Test.make_grouped ~name:"metrics" ~fmt:"%s %s"
      [ record_test; merge_test; registry_merge_test; counter_test ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  let rows = ref [] in
  Hashtbl.iter
    (fun _metric tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some (est :: _) -> rows := (name, est) :: !rows
          | Some [] | None -> ())
        tbl)
    results;
  let rows = List.sort compare !rows in
  metrics_json := rows;
  let table =
    Table.create ~title:"Metrics layer (Bechamel, monotonic clock)"
      ~columns:[ "benchmark"; "ns/run" ]
  in
  List.iter
    (fun (name, est) -> Table.add_row table [ name; Printf.sprintf "%.1f" est ])
    rows;
  Table.print table

(* {1 Fuzz sweep: throughput and jobs-determinism}

   Runs the swarm-testing fuzzer over a block of seeds twice —
   sequentially and fanned over the domain pool — and demands
   byte-identical summaries apart from host timings (same verdicts,
   same per-seed event counts, same failure list) plus a clean sweep.
   A mismatch or a failing seed is a regression, so this target exits
   non-zero rather than just reporting. *)

let fuzz_sweep ?pool scale =
  let seeds = match scale with E.Scaled -> 60 | E.Full -> 400 in
  let exec = Cup_obs.Fuzz_oracle.execute in
  let t0 = Unix.gettimeofday () in
  let sequential =
    Cup_sim.Fuzz.run_seeds ~exec ~shrink_failures:false ~seed_start:0 ~seeds ()
  in
  let seq_s = Unix.gettimeofday () -. t0 in
  let pooled_s, deterministic =
    match pool with
    | None -> (None, true)
    | Some pool ->
        let t0 = Unix.gettimeofday () in
        let pooled =
          Cup_sim.Fuzz.run_seeds ~exec ~pool ~shrink_failures:false
            ~seed_start:0 ~seeds ()
        in
        (* [timings] holds host milliseconds, never equal across two
           sweeps; the verdict is every other field. *)
        let verdict (s : Cup_sim.Fuzz.summary) = { s with timings = [] } in
        (Some (Unix.gettimeofday () -. t0), verdict pooled = verdict sequential)
  in
  let table =
    Table.create ~title:"Fuzz sweep (seeds 0..)"
      ~columns:[ "mode"; "seeds"; "passed"; "seconds"; "seeds/s" ]
  in
  let row mode s =
    Table.add_row table
      [
        mode;
        string_of_int sequential.Cup_sim.Fuzz.seeds_run;
        string_of_int sequential.Cup_sim.Fuzz.passed;
        Printf.sprintf "%.2f" s;
        Printf.sprintf "%.1f" (float_of_int seeds /. s);
      ]
  in
  row "sequential" seq_s;
  Option.iter (fun s -> row "pooled" s) pooled_s;
  Table.print table;
  Printf.printf "pooled verdicts byte-identical: %s\n"
    (match pool with
    | None -> "n/a (jobs=1)"
    | Some _ -> if deterministic then "yes" else "NO");
  fuzz_json :=
    [
      ("seeds", Json.Int seeds);
      ("passed", Json.Int sequential.Cup_sim.Fuzz.passed);
      ("failed", Json.Int (List.length sequential.Cup_sim.Fuzz.failures));
      ("sequential_seconds", Json.Float seq_s);
      ("sequential_seeds_per_sec", Json.Float (float_of_int seeds /. seq_s));
      ("pooled_deterministic", Json.Bool deterministic);
    ]
    @
    (match pooled_s with
    | None -> []
    | Some s ->
        [
          ("pooled_seconds", Json.Float s);
          ("pooled_seeds_per_sec", Json.Float (float_of_int seeds /. s));
        ]);
  if not deterministic then begin
    prerr_endline "fuzz: pooled sweep diverged from sequential";
    exit 1
  end;
  if sequential.Cup_sim.Fuzz.failures <> [] then begin
    List.iter
      (fun (f : Cup_sim.Fuzz.failure) ->
        Printf.eprintf "fuzz: FAIL seed %d: [%s %s] %s\n" f.seed f.fail.code
          f.fail.invariant f.fail.detail)
      sequential.Cup_sim.Fuzz.failures;
    exit 1
  end

(* {1 Driver} *)

let write_harness_json ~jobs ~scale =
  let path = "BENCH_harness.json" in
  let json =
    Json.Obj
      ([
         ("schema", Json.String "cup-bench-harness/1");
         ("jobs", Json.Int jobs);
         ( "recommended_domain_count",
           Json.Int (Pool.default_jobs ()) );
         (* Named [scale_level] so the key cannot collide with the
            scale-runs section below. *)
         ( "scale_level",
           Json.String (match scale with E.Scaled -> "scaled" | E.Full -> "full")
         );
         ( "targets",
           Json.List
             (List.rev_map
                (fun (name, seconds, (b : Resource.snapshot)
                          , (a : Resource.snapshot)) ->
                  Json.Obj
                    [
                      ("name", Json.String name);
                      ("seconds", Json.Float seconds);
                      ("peak_rss_bytes", Json.Int a.peak_rss_bytes);
                      ( "gc",
                        Json.Obj
                          [
                            ( "minor_words",
                              Json.Float (a.minor_words -. b.minor_words) );
                            ( "promoted_words",
                              Json.Float (a.promoted_words -. b.promoted_words)
                            );
                            ( "major_words",
                              Json.Float (a.major_words -. b.major_words) );
                            ( "minor_collections",
                              Json.Int (a.minor_collections - b.minor_collections)
                            );
                            ( "major_collections",
                              Json.Int (a.major_collections - b.major_collections)
                            );
                          ] );
                    ])
                !target_timings) );
       ]
      @ (match !harness_json with
        | [] -> []
        | fields -> [ ("harness", Json.Obj fields) ])
      @ (match !faults_json with
        | [] -> []
        | fields -> [ ("faults", Json.Obj fields) ])
      @ (match !scale_json with
        | [] -> []
        | fields -> [ ("scale", Json.Obj fields) ])
      @ (match !attribution_json with
        | [] -> []
        | fields -> [ ("attribution", Json.Obj fields) ])
      @ (match !trace_io_json with
        | [] -> []
        | fields -> [ ("trace_io", Json.Obj fields) ])
      @ (match !fuzz_json with
        | [] -> []
        | fields -> [ ("fuzz", Json.Obj fields) ])
      @ (match !overlay_growth_json with
        | [] -> []
        | fields -> [ ("overlay_growth", Json.Obj fields) ])
      @ (match !time_growth_json with
        | [] -> []
        | fields -> [ ("time_growth", Json.Obj fields) ])
      @ (match !micro_json with
        | [] -> []
        | rows ->
            [
              ( "micro_ns_per_run",
                Json.List
                  (List.map
                     (fun (name, ns) ->
                       Json.Obj
                         [ ("name", Json.String name); ("ns", Json.Float ns) ])
                     rows) );
            ])
      @
      match !metrics_json with
      | [] -> []
      | rows ->
          [
            ( "metrics_ns_per_run",
              Json.List
                (List.map
                   (fun (name, ns) ->
                     Json.Obj
                       [ ("name", Json.String name); ("ns", Json.Float ns) ])
                   rows) );
          ])
  in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "(wrote %s)\n" path

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = if List.mem "--full" args then E.Full else E.Scaled in
  let jobs = ref 0 in
  let rec strip_opts = function
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 0 ->
            jobs := n;
            strip_opts rest
        | Some _ | None ->
            prerr_endline "bench: --jobs expects a non-negative integer";
            exit 2)
    | "--full" :: rest -> "--full" :: strip_opts rest
    | a :: _ when String.starts_with ~prefix:"--" a ->
        prerr_endline ("bench: unknown option " ^ a);
        exit 2
    | a :: rest -> a :: strip_opts rest
    | [] -> []
  in
  let args = strip_opts args in
  (* [--jobs 0] (the default) clamps to the runtime's recommended
     domain count, so the pool never oversubscribes a small machine. *)
  let jobs = if !jobs = 0 then Pool.default_jobs () else !jobs in
  let targets = List.filter (fun a -> a <> "--full") args in
  let targets = if targets = [] then [ "all" ] else targets in
  (* Every target, in run order, with its body over the domain pool.
     [~named:true] marks the explicit-only ones, which never ride along
     with [all]: the 1M scale run is too big to spring on a routine
     bench invocation. *)
  let table = ref [] in
  let target ?(named = false) name f = table := (name, named, f) :: !table in
  target "faults" (fun _ ->
      section "Fault injection: repair and message accounting";
      faults scale);
  target "trace-io" (fun _ ->
      section "Trace I/O: sink throughput and streaming-analyzer footprint";
      trace_io scale);
  target "fuzz" (fun pool ->
      section "Fuzz sweep: seeds/sec and jobs-determinism";
      fuzz_sweep ?pool scale);
  target ~named:true "scale" (fun _ ->
      section "Scale: 10k / 100k / 1M-node batch-synchronous runs";
      scale_runs `Full);
  target ~named:true "scale-smoke" (fun _ ->
      section "Scale smoke: 10k-node run, shards=1 vs shards=4";
      scale_runs `Smoke);
  target "overlay-growth" (fun _ ->
      section "Overlay build growth: CAN random, CAN grid and Chord, n = 2^10..2^15";
      overlay_growth ~big:(List.mem "overlay-growth" targets));
  target ~named:true "time-growth" (fun _ ->
      section
        "Per-event cost vs simulated time: 150 s and 1200 s query windows";
      time_growth ());
  target ~named:true "attribution" (fun _ ->
      section "Attribution: K=100 overhead on the 100k scale run, O(K) memory";
      attribution_bench ());
  target "profile" (fun _ ->
      section "Engine throughput and profiling probes";
      print_profiles scale);
  target "harness" (fun pool ->
      section "Parallel harness: sequential vs pooled wall time";
      harness ?pool scale);
  target "micro" (fun _ ->
      section "Micro-benchmarks";
      micro ());
  target "metrics" (fun _ ->
      section "Metrics-layer micro-benchmarks";
      metrics_bench ());
  let table = List.rev !table in
  (match
     List.filter
       (fun name ->
         name <> "all" && not (List.exists (fun (n, _, _) -> n = name) table))
       targets
   with
  | [] -> ()
  | unknown ->
      prerr_endline
        ("bench: unknown target " ^ String.concat ", " unknown
       ^ "; targets: all "
        ^ String.concat " " (List.map (fun (n, _, _) -> n) table));
      exit 2);
  Printf.printf "CUP benchmark harness (%s, %d job%s)\n"
    (scale_label scale) jobs
    (if jobs = 1 then "" else "s");
  let pool = if jobs > 1 then Some (Pool.create ~jobs) else None in
  List.iter
    (fun (name, named, run) ->
      if List.mem name targets || ((not named) && List.mem "all" targets)
      then begin
        let before = Resource.snapshot () in
        let t0 = Unix.gettimeofday () in
        run pool;
        let seconds = Unix.gettimeofday () -. t0 in
        target_timings :=
          (name, seconds, before, Resource.snapshot ()) :: !target_timings
      end)
    table;
  Option.iter Pool.shutdown pool;
  write_harness_json ~jobs ~scale;
  Printf.printf "\ndone.\n"
