(* Tests for Cup_obs: JSON codec, trace sinks, and in-run time-series
   sampling. *)

module Json = Cup_obs.Json
module Event_json = Cup_obs.Event_json
module Sink = Cup_obs.Sink
module Timeseries = Cup_obs.Timeseries
module Trace = Cup_sim.Trace
module Runner = Cup_sim.Runner
module Scenario = Cup_sim.Scenario
module Counters = Cup_metrics.Counters
module Policy = Cup_proto.Policy
module Time = Cup_dess.Time
module Node_id = Cup_overlay.Node_id
module Key = Cup_overlay.Key

let base =
  {
    Scenario.default with
    nodes = 48;
    total_keys_override = Some 1;
    query_rate = 0.5;
    query_start = 300.;
    query_duration = 900.;
    drain = 300.;
    seed = 1001;
  }

(* {1 JSON} *)

let test_json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 3.25;
      Json.Float 300.39042724950792;
      Json.String "plain";
      Json.String "with \"quotes\", \\slashes\\ and\nnewlines\t";
      Json.List [ Json.Int 1; Json.Bool false; Json.Null ];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("b", Json.List [ Json.Float 0.5 ]) ]);
        ];
      Json.List [];
      Json.Obj [];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      match Json.of_string s with
      | Ok v' ->
          Alcotest.(check string)
            ("round-trip " ^ s) s (Json.to_string v')
      | Error e -> Alcotest.fail (Printf.sprintf "parse %s: %s" s e))
    cases

let test_json_float_precision () =
  (* floats survive print/parse exactly, including awkward ones *)
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') ->
          Alcotest.(check bool) (Printf.sprintf "%h exact" f) true (f = f')
      | Ok (Json.Int i) ->
          Alcotest.(check bool) "integral float" true (float_of_int i = f)
      | Ok _ -> Alcotest.fail "wrong constructor"
      | Error e -> Alcotest.fail e)
    [ 0.; 1. /. 3.; 300.39042724950792; 1e-9; 123456789.123456789; 1e22 ]

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "1 2"; "nul"; "\"unterminated" ]

(* {1 Event JSON round-trip} *)

let all_events =
  (* a small but causally consistent trace: one query trace (1) whose
     spans chain 1 → 2 → … and one update forest rooted at parent 0 *)
  let at = Time.of_seconds 350.125 in
  let n i = Node_id.of_int i in
  let k = Key.of_int 3 in
  [
    Trace.Query_posted
      { at; node = n 4; key = k; trace_id = 1; span_id = 1; parent_id = 0 };
    Trace.Query_forwarded
      {
        at;
        from_ = n 4;
        to_ = n 9;
        key = k;
        trace_id = 1;
        span_id = 2;
        parent_id = 1;
      };
    Trace.Update_delivered
      {
        at;
        from_ = n 9;
        to_ = n 4;
        key = k;
        kind = Cup_proto.Update.First_time;
        level = 1;
        answering = true;
        entries = [ (1, 650.5); (2, 700.) ];
        trace_id = 1;
        span_id = 3;
        parent_id = 2;
      };
    Trace.Update_delivered
      {
        at;
        from_ = n 9;
        to_ = n 4;
        key = k;
        kind = Cup_proto.Update.Refresh;
        level = 3;
        answering = false;
        entries = [ (1, 820.25) ];
        trace_id = 7;
        span_id = 4;
        parent_id = 0;
      };
    Trace.Update_delivered
      {
        at;
        from_ = n 9;
        to_ = n 4;
        key = k;
        kind = Cup_proto.Update.Delete;
        level = 2;
        answering = false;
        entries = [ (2, 0.) ];
        trace_id = 7;
        span_id = 5;
        parent_id = 4;
      };
    Trace.Update_delivered
      {
        at;
        from_ = n 9;
        to_ = n 4;
        key = k;
        kind = Cup_proto.Update.Append;
        level = 7;
        answering = false;
        entries = [];
        trace_id = 7;
        span_id = 6;
        parent_id = 4;
      };
    Trace.Clear_bit_delivered
      {
        at;
        from_ = n 4;
        to_ = n 9;
        key = k;
        trace_id = 1;
        span_id = 7;
        parent_id = 3;
      };
    Trace.Local_answer
      {
        at;
        node = n 4;
        key = k;
        hit = false;
        waiters = 2;
        trace_id = 1;
        span_id = 8;
        parent_id = 3;
      };
    Trace.Node_crashed { at; node = n 9 };
    Trace.Node_recovered { at; node = n 16 };
    Trace.Message_lost
      {
        at;
        from_ = n 9;
        to_ = n 4;
        key = k;
        trace_id = 1;
        span_id = 9;
        parent_id = 2;
      };
    Trace.Repair_query
      {
        at;
        node = n 4;
        key = k;
        attempt = 2;
        trace_id = 10;
        span_id = 10;
        parent_id = 0;
      };
  ]

(* QCheck generator covering every [Trace.event] constructor with
   arbitrary field values, so the codec round-trip is a property over
   the whole event type rather than a hand-picked list. *)
let event_gen : Trace.event QCheck.Gen.t =
  let open QCheck.Gen in
  let at = map Time.of_seconds (float_range 0. 100_000.) in
  let node = map Node_id.of_int (int_range 0 4095) in
  let key = map Key.of_int (int_range 0 4095) in
  let span_id = int_range 0 1_000_000 in
  let spans = triple span_id span_id span_id in
  let kind =
    oneofl
      Cup_proto.Update.
        [ First_time; Refresh; Delete; Append ]
  in
  oneof
    [
      map3
        (fun at (node, key) (trace_id, span_id, parent_id) ->
          Trace.Query_posted { at; node; key; trace_id; span_id; parent_id })
        at (pair node key) spans;
      map3
        (fun at (from_, to_, key) (trace_id, span_id, parent_id) ->
          Trace.Query_forwarded
            { at; from_; to_; key; trace_id; span_id; parent_id })
        at (triple node node key) spans;
      map3
        (fun (at, from_, to_) ((key, kind, level, answering), entries)
             (trace_id, span_id, parent_id) ->
          Trace.Update_delivered
            {
              at;
              from_;
              to_;
              key;
              kind;
              level;
              answering;
              entries;
              trace_id;
              span_id;
              parent_id;
            })
        (triple at node node)
        (pair
           (quad key kind (int_range 0 64) bool)
           (list_size (int_range 0 4)
              (pair (int_range 0 4095) (float_range 0. 100_000.))))
        spans;
      map3
        (fun at (from_, to_, key) (trace_id, span_id, parent_id) ->
          Trace.Clear_bit_delivered
            { at; from_; to_; key; trace_id; span_id; parent_id })
        at (triple node node key) spans;
      map3
        (fun (at, node, key) (hit, waiters) (trace_id, span_id, parent_id) ->
          Trace.Local_answer
            { at; node; key; hit; waiters; trace_id; span_id; parent_id })
        (triple at node key)
        (pair bool (int_range 0 100))
        spans;
      map2 (fun at node -> Trace.Node_crashed { at; node }) at node;
      map2 (fun at node -> Trace.Node_recovered { at; node }) at node;
      map3
        (fun at (from_, to_, key) (trace_id, span_id, parent_id) ->
          Trace.Message_lost
            { at; from_; to_; key; trace_id; span_id; parent_id })
        at (triple node node key) spans;
      map3
        (fun (at, node, key) attempt (trace_id, span_id, parent_id) ->
          Trace.Repair_query
            { at; node; key; attempt; trace_id; span_id; parent_id })
        (triple at node key) (int_range 1 10) spans;
    ]

let arb_event =
  QCheck.make
    ~print:(fun e -> Format.asprintf "%a" Trace.pp_event e)
    event_gen

let prop_event_json_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"encode → parse → encode is byte-identical"
    arb_event (fun event ->
      let line = Event_json.to_string event in
      match Event_json.of_string line with
      | Error e -> QCheck.Test.fail_reportf "%s: %s" line e
      | Ok event' ->
          if event <> event' then
            QCheck.Test.fail_reportf "value changed: %s" line;
          let line' = Event_json.to_string event' in
          if line <> line' then
            QCheck.Test.fail_reportf "bytes changed: %s vs %s" line line';
          (match Json.of_string line with
          | Ok j ->
              if
                Option.is_none
                  (Option.bind (Json.member "type" j) Json.to_str)
              then QCheck.Test.fail_reportf "no type field: %s" line
          | Error e -> QCheck.Test.fail_reportf "not an object: %s" e);
          true)

let test_event_json_legacy_parse () =
  (* pre-span traces (no trace/span/parent fields) must still parse,
     with the ids defaulting to 0 *)
  let cases =
    [
      ( "{\"type\":\"query_posted\",\"at\":1.5,\"node\":4,\"key\":3}",
        Trace.Query_posted
          {
            at = Time.of_seconds 1.5;
            node = Node_id.of_int 4;
            key = Key.of_int 3;
            trace_id = 0;
            span_id = 0;
            parent_id = 0;
          } );
      ( "{\"type\":\"update_delivered\",\"at\":2.0,\"from\":9,\"to\":4,\
         \"key\":3,\"kind\":\"refresh\",\"level\":2,\"answering\":false}",
        Trace.Update_delivered
          {
            at = Time.of_seconds 2.0;
            from_ = Node_id.of_int 9;
            to_ = Node_id.of_int 4;
            key = Key.of_int 3;
            kind = Cup_proto.Update.Refresh;
            level = 2;
            answering = false;
            entries = [];
            trace_id = 0;
            span_id = 0;
            parent_id = 0;
          } );
      ( "{\"type\":\"repair_query\",\"at\":3.0,\"node\":4,\"key\":3,\
         \"attempt\":1}",
        Trace.Repair_query
          {
            at = Time.of_seconds 3.0;
            node = Node_id.of_int 4;
            key = Key.of_int 3;
            attempt = 1;
            trace_id = 0;
            span_id = 0;
            parent_id = 0;
          } );
    ]
  in
  List.iter
    (fun (line, expected) ->
      match Event_json.of_string line with
      | Ok e -> Alcotest.(check bool) line true (e = expected)
      | Error msg -> Alcotest.fail (line ^ ": " ^ msg))
    cases;
  (* span ids surface through the accessor; membership events carry none *)
  List.iter
    (fun e ->
      match (Trace.event_span e, e) with
      | None, (Trace.Node_crashed _ | Trace.Node_recovered _) -> ()
      | Some _, (Trace.Node_crashed _ | Trace.Node_recovered _) ->
          Alcotest.fail "membership event claims a span"
      | None, _ -> Alcotest.fail "protocol event lost its span"
      | Some _, _ -> ())
    all_events

let test_event_json_rejects_bad_events () =
  List.iter
    (fun s ->
      match Event_json.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    [
      "{}";
      "{\"type\":\"warp_drive\",\"at\":1.0}";
      "{\"type\":\"query_posted\",\"at\":1.0,\"node\":1}";
      "{\"type\":\"query_posted\",\"at\":1.0,\"node\":-1,\"key\":0}";
      (* ids past Node_key's packing limit, as the binary codec *)
      "{\"type\":\"query_posted\",\"at\":1.0,\"node\":1073741824,\"key\":0}";
      "{\"type\":\"query_posted\",\"at\":1.0,\"node\":1,\"key\":1073741824}";
      "{\"type\":\"update_delivered\",\"at\":1.0,\"from\":0,\"to\":1,\
       \"key\":0,\"kind\":\"sideways\",\"level\":1,\"answering\":false}";
      "not json at all";
    ]

(* {1 Sinks} *)

let test_sink_fanout_and_counts () =
  let ring_a = Trace.create ~capacity:4 () in
  let ring_b = Trace.create ~capacity:100 () in
  let a = Sink.ring ring_a and b = Sink.ring ring_b in
  let fan = Sink.fanout [ a; b ] in
  List.iter (Sink.emit fan) all_events;
  Alcotest.(check int) "fanout saw all" (List.length all_events)
    (Sink.events_seen fan);
  Alcotest.(check int) "child a saw all" (List.length all_events)
    (Sink.events_seen a);
  Alcotest.(check int) "small ring kept capacity" 4 (Trace.length ring_a);
  Alcotest.(check int) "big ring kept everything" (List.length all_events)
    (Trace.length ring_b);
  Sink.close fan;
  Sink.close fan;
  (* idempotent *)
  Alcotest.check_raises "emit after close"
    (Invalid_argument "Sink.emit: sink is closed") (fun () ->
      Sink.emit fan (List.hd all_events))

let test_jsonl_sink_roundtrip () =
  (* write a synthetic stream, read it back line by line *)
  let path = Filename.temp_file "cup_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Sink.jsonl_file path in
      List.iter (Sink.emit sink) all_events;
      Sink.close sink;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let parsed =
        List.rev_map
          (fun line ->
            match Event_json.of_string line with
            | Ok e -> e
            | Error msg -> Alcotest.fail (line ^ ": " ^ msg))
          !lines
      in
      Alcotest.(check bool) "events survive the file round-trip" true
        (parsed = all_events))

let test_jsonl_sink_on_live_run_matches_counters () =
  (* stream a whole simulation to JSONL; re-read it and check the
     per-type event counts against the run's own accounting *)
  let path = Filename.temp_file "cup_run" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let live = Runner.Live.create (Scenario.with_policy base Policy.second_chance) in
      let sink = Sink.jsonl_file path in
      Sink.attach live sink;
      let r = Runner.Live.finish live in
      Sink.close sink;
      let counts = Hashtbl.create 8 in
      let total = ref 0 in
      let ic = open_in path in
      (try
         while true do
           let line = input_line ic in
           incr total;
           match Event_json.of_string line with
           | Error msg -> Alcotest.fail (line ^ ": " ^ msg)
           | Ok event ->
               let typ =
                 match event with
                 | Trace.Query_posted _ -> "query_posted"
                 | Trace.Query_forwarded _ -> "query_forwarded"
                 | Trace.Update_delivered _ -> "update_delivered"
                 | Trace.Clear_bit_delivered _ -> "clear_bit"
                 | Trace.Local_answer _ -> "local_answer"
                 | Trace.Node_crashed _ -> "node_crashed"
                 | Trace.Node_recovered _ -> "node_recovered"
                 | Trace.Message_lost _ -> "message_lost"
                 | Trace.Repair_query _ -> "repair_query"
               in
               Hashtbl.replace counts typ
                 (1 + Option.value ~default:0 (Hashtbl.find_opt counts typ))
         done
       with End_of_file -> close_in ic);
      let count typ = Option.value ~default:0 (Hashtbl.find_opt counts typ) in
      Alcotest.(check int) "sink saw every line it wrote" !total
        (Sink.events_seen sink);
      Alcotest.(check int) "query hops" (Counters.query_hops r.counters)
        (count "query_forwarded");
      Alcotest.(check int) "delivered updates"
        (Counters.first_time_answer_hops r.counters
        + Counters.first_time_proactive_hops r.counters
        + Counters.refresh_hops r.counters
        + Counters.delete_hops r.counters
        + Counters.append_hops r.counters)
        (count "update_delivered");
      Alcotest.(check int) "clear-bits"
        (Counters.clear_bit_hops r.counters)
        (count "clear_bit"))

(* {1 Time series} *)

let quiet_base =
  (* all protocol activity finishes well before sim_end, so the last
     sample tick sees the final counter values *)
  Scenario.with_policy
    {
      base with
      query_duration = 400.;
      drain = 300.;
      replica_lifetime = 10000.;
    }
    Policy.Standard_caching

let test_timeseries_deltas_sum_to_totals () =
  let live = Runner.Live.create quiet_base in
  let ts = Timeseries.attach ~interval:50. live in
  let r = Runner.Live.finish live in
  let samples = Timeseries.samples ts in
  Alcotest.(check int) "one sample per interval" 20 (List.length samples);
  let sum get = List.fold_left (fun acc s -> acc + get s) 0 samples in
  Alcotest.(check int) "total cost deltas sum to the run total"
    (Counters.total_cost r.counters)
    (sum (fun (s : Timeseries.sample) -> s.total_cost));
  Alcotest.(check int) "miss deltas"
    (Counters.miss_cost r.counters)
    (sum (fun (s : Timeseries.sample) -> s.miss_cost));
  Alcotest.(check int) "hit deltas" (Counters.hits r.counters)
    (sum (fun (s : Timeseries.sample) -> s.hits));
  Alcotest.(check int) "miss count deltas" (Counters.misses r.counters)
    (sum (fun (s : Timeseries.sample) -> s.misses));
  (* timestamps advance by exactly one interval *)
  let rec check_spacing = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check (float 1e-9)) "spacing" 50.
          (b.Timeseries.at -. a.Timeseries.at);
        check_spacing rest
    | _ -> ()
  in
  check_spacing samples;
  (* sampling is pure observation: the run's costs match an
     unsampled run of the same scenario *)
  let plain = Runner.run quiet_base in
  Alcotest.(check int) "sampling does not perturb the run"
    (Counters.total_cost plain.counters)
    (Counters.total_cost r.counters)

let test_timeseries_deterministic_and_csv () =
  let rows_of () =
    let live = Runner.Live.create quiet_base in
    let ts = Timeseries.attach ~interval:50. live in
    ignore (Runner.Live.finish live);
    Timeseries.csv_rows ts
  in
  let a = rows_of () and b = rows_of () in
  Alcotest.(check bool) "same seed, identical rows" true (a = b);
  let path = Filename.temp_file "cup_ts" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let live = Runner.Live.create quiet_base in
      let ts = Timeseries.attach ~interval:50. live in
      ignore (Runner.Live.finish live);
      Timeseries.write_csv ts ~path;
      let ic = open_in path in
      let header = input_line ic in
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> close_in ic);
      Alcotest.(check string) "header" (String.concat "," Timeseries.csv_header)
        header;
      Alcotest.(check int) "one line per sample"
        (List.length (Timeseries.samples ts))
        !n)

let test_timeseries_queue_depths_under_token_bucket () =
  let starved =
    Scenario.with_policy
      {
        base with
        replicas_per_key = 5;
        replica_lifetime = 60.;
        capacity_mode = Scenario.Token_bucket 0.05;
      }
      Policy.second_chance
  in
  let live = Runner.Live.create starved in
  let ts = Timeseries.attach ~interval:50. live in
  ignore (Runner.Live.finish live);
  Alcotest.(check bool) "starved channels show queued updates" true
    (List.exists
       (fun (s : Timeseries.sample) -> s.queued_updates > 0)
       (Timeseries.samples ts));
  Alcotest.(check bool) "max depth bounded by total" true
    (List.for_all
       (fun (s : Timeseries.sample) -> s.max_queue_depth <= s.queued_updates)
       (Timeseries.samples ts))

(* {1 Spans on live runs} *)

let faulty =
  (* crash + loss injection: the adversarial setting for causal links *)
  {
    base with
    nodes = 64;
    query_duration = 600.;
    crashes =
      Some { Scenario.crash_rate = 0.02; recover_after = 20.; warmup = 30. };
    loss = Some { Scenario.drop = 0.15; jitter = 1.0 };
  }

let trace_bytes scenario =
  (* run [scenario] streaming every event through the JSONL codec,
     returning the byte-for-byte trace and the run result *)
  let buf = Buffer.create 4096 in
  let live = Runner.Live.create scenario in
  Runner.Live.set_tracer live
    (Some
       (fun e ->
         Buffer.add_string buf (Event_json.to_string e);
         Buffer.add_char buf '\n'));
  let r = Runner.Live.finish live in
  (Buffer.contents buf, r)

let events_of_bytes bytes =
  String.split_on_char '\n' bytes
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Event_json.of_string l with
         | Ok e -> e
         | Error msg -> Alcotest.fail (l ^ ": " ^ msg))

let hex_digest s = Digest.to_hex (Digest.string s)

(* The span trace of [faulty], span ids included, pinned by digest. *)
let test_trace_bytes_pinned () =
  let bytes, _ = trace_bytes faulty in
  Alcotest.(check bool) "trace is nonempty" true (String.length bytes > 0);
  Alcotest.(check string) "trace digest" "5cfbc6346b518a59ce47a9c9c03501c6"
    (hex_digest bytes)

let test_spans_deterministic_across_jobs () =
  (* the per-run span counter must not leak across runs: a pool
     executing runs on 4 domains yields the same bytes as jobs=1 *)
  let seeds = [ 2001; 2002; 2003; 2004; 2005; 2006 ] in
  let run_all jobs =
    Cup_parallel.Pool.with_pool ~jobs (fun pool ->
        Cup_parallel.Pool.map pool
          (fun seed -> fst (trace_bytes { faulty with seed }))
          seeds)
  in
  Alcotest.(check bool) "jobs=1 and jobs=4 give identical traces" true
    (run_all 1 = run_all 4)

let test_metrics_attachment_keeps_trace_bytes () =
  (* attaching a registry alongside the tracer must not perturb span
     allocation *)
  let plain, _ = trace_bytes faulty in
  let buf = Buffer.create 4096 in
  let live = Runner.Live.create faulty in
  let registry = Cup_metrics.Registry.create () in
  Runner.Live.set_metrics live (Some registry);
  Runner.Live.set_tracer live
    (Some
       (fun e ->
         Buffer.add_string buf (Event_json.to_string e);
         Buffer.add_char buf '\n'));
  ignore (Runner.Live.finish live);
  Alcotest.(check bool) "same bytes with metrics attached" true
    (plain = Buffer.contents buf);
  Alcotest.(check bool) "registry filled" true
    (Cup_metrics.Registry.series_count registry > 0)

(* The registry exposition of [faulty], pinned by digest. *)
let test_registry_exposition_pinned () =
  let live = Runner.Live.create faulty in
  let registry = Cup_metrics.Registry.create () in
  Runner.Live.set_metrics live (Some registry);
  ignore (Runner.Live.finish live);
  let exposition = Cup_metrics.Registry.to_prometheus registry in
  Alcotest.(check bool) "exposition nonempty" true
    (String.length exposition > 0);
  Alcotest.(check string) "exposition digest"
    "460c0bbdb5988a996faf45401c455edb"
    (hex_digest exposition)

(* {1 Analyzer} *)

(* Force every critical path, so that two summaries compare
   structurally. *)
let forced (s : Cup_obs.Analyzer.summary) =
  List.iter
    (fun (t : Cup_obs.Analyzer.tree) -> ignore (Lazy.force t.critical_path))
    s.traces;
  s

let streamed events =
  let st = Cup_obs.Analyzer.Streaming.create () in
  List.iter (Cup_obs.Analyzer.Streaming.feed st) events;
  Cup_obs.Analyzer.Streaming.finish st

let test_analyzer_no_orphans_under_faults () =
  let bytes, r = trace_bytes faulty in
  let events = events_of_bytes bytes in
  let s = streamed events in
  Alcotest.(check int) "saw every event" (List.length events) s.events;
  Alcotest.(check int) "zero orphan spans under crash+loss" 0 s.orphans;
  Alcotest.(check int) "no legacy events in a fresh trace" 0 s.legacy;
  Alcotest.(check bool) "reconstructed some traces" true (s.traces <> []);
  List.iter
    (fun (t : Cup_obs.Analyzer.tree) ->
      Alcotest.(check bool) "depth ≥ 1" true (t.depth >= 1);
      Alcotest.(check bool) "spans ≥ depth" true (t.spans >= t.depth);
      let path = Lazy.force t.critical_path in
      Alcotest.(check bool) "critical path nonempty" true (path <> []);
      Alcotest.(check bool) "critical path bounded by depth" true
        (List.length path <= t.depth))
    s.traces;
  (* hit/miss replay matches the runner's own counters *)
  Alcotest.(check int) "hits" (Counters.hits r.counters) s.hits;
  Alcotest.(check int) "misses" (Counters.misses r.counters) s.misses;
  Alcotest.(check int) "every posted query answered" 0 s.unanswered

let test_analyzer_latency_matches_counters () =
  (* recovered miss latencies (seconds) = counters' latencies (hops)
     × hop_delay, so the means must agree to rounding *)
  let bytes, r = trace_bytes faulty in
  let s = streamed (events_of_bytes bytes) in
  Alcotest.(check int) "one latency sample per miss" s.misses
    (Array.length s.miss_latencies);
  if s.misses > 0 then begin
    let mean_hops =
      Cup_obs.Analyzer.mean_of s.miss_latencies /. faulty.hop_delay
    in
    Alcotest.(check (float 1e-6)) "mean latency matches counters"
      (Counters.avg_miss_latency_hops r.counters)
      mean_hops;
    let p50 = Cup_obs.Analyzer.percentile s.miss_latencies 0.50 in
    let p99 = Cup_obs.Analyzer.percentile s.miss_latencies 0.99 in
    Alcotest.(check bool) "p50 ≤ p99 ≤ max" true
      (p50 <= p99 && p99 <= s.miss_latencies.(Array.length s.miss_latencies - 1))
  end

let test_analyzer_handles_legacy_and_orphans () =
  let at = Time.of_seconds 1.0 in
  let n = Node_id.of_int 1 and k = Key.of_int 0 in
  let legacy =
    Trace.Query_posted
      { at; node = n; key = k; trace_id = 0; span_id = 0; parent_id = 0 }
  in
  let orphan =
    Trace.Query_forwarded
      {
        at;
        from_ = n;
        to_ = Node_id.of_int 2;
        key = k;
        trace_id = 5;
        span_id = 77;
        parent_id = 66;
        (* 66 never appears *)
      }
  in
  let s = streamed [ legacy; orphan ] in
  Alcotest.(check int) "legacy counted" 1 s.legacy;
  Alcotest.(check int) "orphan detected" 1 s.orphans;
  Alcotest.(check bool) "orphan example recorded" true
    (List.mem (77, 66) s.orphan_examples)

(* {1 Binary trace codec, writer, reader and streaming analyzer} *)

module Binary_codec = Cup_obs.Binary_codec
module Binary_writer = Cup_obs.Binary_writer
module Trace_reader = Cup_obs.Trace_reader
module Scale = Cup_sim.Scale

(* Parse one framed record produced by [encode_to_string]: the LEB128
   length prefix followed by the body.  Returns the record and the
   total bytes consumed. *)
let decode_framed bytes =
  let pos = ref 0 in
  let rec varint shift acc =
    let b = Char.code bytes.[!pos] in
    incr pos;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then varint (shift + 7) acc else acc
  in
  let len = varint 0 0 in
  let r = Binary_codec.decode_body bytes ~pos:!pos ~len in
  (r, !pos + len)

let prop_binary_roundtrip =
  QCheck.Test.make ~count:2000
    ~name:"binary encode → decode → encode is byte-identical" arb_event
    (fun event ->
      let bytes = Binary_codec.encode_to_string (Binary_codec.Event event) in
      let r', consumed = decode_framed bytes in
      if consumed <> String.length bytes then
        QCheck.Test.fail_reportf "frame length mismatch: %d vs %d" consumed
          (String.length bytes);
      (match r' with
      | Binary_codec.Event e' when e' = event -> ()
      | _ -> QCheck.Test.fail_reportf "value changed across the round-trip");
      String.equal bytes (Binary_codec.encode_to_string r'))

let scale_events =
  [
    Scale.T_post { w = 0; node = 7; key = 3; idx = 0; out = 2 };
    Scale.T_msg
      { w = 0; dst = 8; src = 7; seq = 1; body = Scale.B_query 3; out = 1 };
    Scale.T_msg
      {
        w = 1;
        dst = 7;
        src = 8;
        seq = 2;
        body =
          Scale.B_update
            {
              key = 3;
              kind = Cup_proto.Update.First_time;
              level = 2;
              answering = true;
            };
        out = 0;
      };
    Scale.T_msg
      { w = 2; dst = 9; src = 7; seq = 3; body = Scale.B_clear 3; out = 1 };
    Scale.T_refresh { w = 3; key = 3; idx = 1; out = 4 };
  ]

let test_binary_scale_and_line_roundtrip () =
  (* every record shape survives encode → decode, and the opaque-line
     record carries foreign bytes verbatim *)
  List.iter
    (fun ev ->
      let r = Binary_codec.Scale ev in
      match decode_framed (Binary_codec.encode_to_string r) with
      | Binary_codec.Scale ev', _ ->
          Alcotest.(check string)
            "scale record round-trips" (Scale.trace_line ev)
            (Scale.trace_line ev')
      | _, _ -> Alcotest.fail "scale record changed shape")
    scale_events;
  let line = "# not json at all {\xff" in
  match decode_framed (Binary_codec.encode_to_string (Binary_codec.Line line))
  with
  | Binary_codec.Line line', _ ->
      Alcotest.(check string) "opaque line verbatim" line line'
  | _, _ -> Alcotest.fail "line record changed shape"

let test_binary_writer_tiny_buffer_ordering () =
  (* a 64-byte chunk threshold forces a buffer swap every couple of
     records, so record boundaries land on every possible chunk edge;
     the file must still contain exactly the emitted sequence *)
  let path = Filename.temp_file "cup_trace" ".ctrace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Binary_writer.to_file ~buffer_size:64 path in
      let expected = ref [] in
      for i = 1 to 200 do
        let ev = List.nth all_events (i mod List.length all_events) in
        Binary_writer.emit_event w ev;
        expected := ev :: !expected
      done;
      Binary_writer.close w;
      Alcotest.(check int) "records counted" 200 (Binary_writer.records w);
      Alcotest.(check bool) "bytes written" true
        (Binary_writer.bytes_written w > 0);
      let got = ref [] in
      Trace_reader.iter path ~f:(fun _ item ->
          match item with
          | Trace_reader.Event e -> got := e :: !got
          | _ -> Alcotest.fail "unexpected non-event record");
      Alcotest.(check int) "all records read back" 200 (List.length !got);
      Alcotest.(check bool) "sequence preserved across chunk swaps" true
        (!got = !expected))

let test_trace_reader_classifies_both_formats () =
  (* the same mixed stream — protocol events, scale records, a foreign
     line — must classify identically whether it reaches the reader as
     JSONL or as binary *)
  let raw = "# plain comment line" in
  let jsonl_path = Filename.temp_file "cup_trace" ".jsonl" in
  let bin_path = Filename.temp_file "cup_trace" ".ctrace" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove jsonl_path;
      Sys.remove bin_path)
    (fun () ->
      let oc = open_out jsonl_path in
      List.iter
        (fun e ->
          output_string oc (Event_json.to_string e);
          output_char oc '\n')
        all_events;
      List.iter
        (fun ev ->
          output_string oc (Scale.trace_line ev);
          output_char oc '\n')
        scale_events;
      output_string oc (raw ^ "\n");
      close_out oc;
      let w = Binary_writer.to_file bin_path in
      List.iter (Binary_writer.emit_event w) all_events;
      List.iter (Binary_writer.emit_scale w) scale_events;
      Binary_writer.emit_line w raw;
      Binary_writer.close w;
      Alcotest.(check bool) "formats sniffed" true
        (Trace_reader.detect jsonl_path = Trace_reader.Jsonl
        && Trace_reader.detect bin_path = Trace_reader.Binary);
      let classify path =
        let items = ref [] in
        Trace_reader.iter path ~f:(fun ord item ->
            let tag =
              match item with
              | Trace_reader.Event e -> "event:" ^ Event_json.to_string e
              | Trace_reader.Scale_record ev -> "scale:" ^ Scale.trace_line ev
              | Trace_reader.Raw { line; _ } -> "raw:" ^ line
              | Trace_reader.Malformed m -> "malformed:" ^ m
            in
            items := (ord, tag) :: !items);
        List.rev !items
      in
      let from_jsonl = classify jsonl_path and from_bin = classify bin_path in
      Alcotest.(check int) "same record count"
        (List.length from_jsonl) (List.length from_bin);
      Alcotest.(check bool) "identical classification" true
        (from_jsonl = from_bin);
      Alcotest.(check bool) "raw line surfaced" true
        (List.exists (fun (_, t) -> t = "raw:" ^ raw) from_bin))

let test_streaming_analyzer_matches_legacy () =
  (* the constant-memory analyzer must agree with the materializing
     one, structurally, on a real crash+loss trace *)
  let bytes, _ = trace_bytes faulty in
  let events = events_of_bytes bytes in
  let legacy = Analyzer_oracle.analyze events in
  Alcotest.(check bool) "trace is nonempty" true (events <> []);
  Alcotest.(check bool) "summaries structurally equal" true
    (forced (streamed events) = legacy);
  (* and on the degenerate legacy/orphan shapes, including forward
     parent references the streaming pass resolves retroactively *)
  let at = Time.of_seconds 1.0 in
  let n i = Node_id.of_int i and k = Key.of_int 0 in
  let degenerate =
    [
      Trace.Query_posted
        { at; node = n 1; key = k; trace_id = 0; span_id = 0; parent_id = 0 };
      Trace.Query_forwarded
        {
          at;
          from_ = n 1;
          to_ = n 2;
          key = k;
          trace_id = 5;
          span_id = 77;
          parent_id = 66;
        };
      (* forward reference: child arrives before its parent *)
      Trace.Query_forwarded
        {
          at;
          from_ = n 2;
          to_ = n 3;
          key = k;
          trace_id = 9;
          span_id = 101;
          parent_id = 100;
        };
      Trace.Query_posted
        { at; node = n 2; key = k; trace_id = 9; span_id = 100; parent_id = 0 };
    ]
  in
  Alcotest.(check bool) "degenerate shapes agree" true
    (forced (streamed degenerate) = Analyzer_oracle.analyze degenerate)

(* Span ids 1 and 2 name each other as parents, as flipped bits in a
   damaged trace can make them.  Every critical path must still end. *)
let test_streaming_cyclic_parents_end () =
  let at = Time.of_seconds 1.0 and n = Node_id.of_int 1 and k = Key.of_int 0 in
  let forwarded span_id parent_id =
    Trace.Query_forwarded
      { at; from_ = n; to_ = n; key = k; trace_id = 7; span_id; parent_id }
  in
  let s = streamed [ forwarded 1 2; forwarded 2 1 ] in
  List.iter
    (fun (t : Cup_obs.Analyzer.tree) ->
      let path = Lazy.force t.critical_path in
      Alcotest.(check bool) "path bounded by the span count" true
        (List.length path <= 3))
    s.traces;
  let report =
    Format.asprintf "%a" (Cup_obs.Analyzer.pp_summary ?max_traces:None) s
  in
  Alcotest.(check bool) "report printed" true (String.length report > 0)

(* {2 Streaming analyzer against the reference}

   Random scripts over every event shape.  Span ids come from a pool
   that is dense, sparse or strided by a power of two.  An event reuses
   a pool id now and then, and some events carry id 0 (legacy).  A
   parent always sits earlier in the pool than its child, so the parent
   graph has no cycle, but events go out in a locally shuffled order,
   so children can arrive before their parents.  The last pool ids are
   never emitted: a child pointing at one is an orphan. *)

(* [e] with new span fields, its nodes and keys folded onto a few
   values so that posts and answers meet. *)
let respan e ~trace_id ~span_id ~parent_id =
  let node n = Node_id.of_int (Node_id.to_int n mod 2)
  and key k = Key.of_int (Key.to_int k mod 2) in
  match e with
  | Trace.Query_posted r ->
      Trace.Query_posted
        {
          r with
          node = node r.node;
          key = key r.key;
          trace_id;
          span_id;
          parent_id;
        }
  | Trace.Query_forwarded r ->
      Trace.Query_forwarded
        { r with key = key r.key; trace_id; span_id; parent_id }
  | Trace.Update_delivered r ->
      Trace.Update_delivered
        { r with key = key r.key; trace_id; span_id; parent_id }
  | Trace.Clear_bit_delivered r ->
      Trace.Clear_bit_delivered
        { r with key = key r.key; trace_id; span_id; parent_id }
  | Trace.Local_answer r ->
      Trace.Local_answer
        {
          r with
          node = node r.node;
          key = key r.key;
          waiters = r.waiters mod 4;
          trace_id;
          span_id;
          parent_id;
        }
  | Trace.Message_lost r ->
      Trace.Message_lost
        { r with key = key r.key; trace_id; span_id; parent_id }
  | Trace.Repair_query r ->
      Trace.Repair_query
        {
          r with
          node = node r.node;
          key = key r.key;
          trace_id;
          span_id;
          parent_id;
        }
  | (Trace.Node_crashed _ | Trace.Node_recovered _) as e -> e

let analyzer_script_gen : Trace.event list QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 0 40 in
  let size = n + 4 in
  let* ids =
    oneof
      [
        return (Array.init size (fun i -> i + 1));
        map
          (fun gaps ->
            let a = Array.of_list gaps in
            for i = 1 to size - 1 do
              a.(i) <- a.(i) + a.(i - 1)
            done;
            a)
          (list_repeat size (int_range 1 1_000_000_000));
        map
          (fun shift -> Array.init size (fun i -> (i + 1) lsl shift))
          (oneofl [ 10; 20; 32 ]);
      ]
  in
  let event i =
    let* e = event_gen in
    let* p = frequency [ (7, return i); (2, int_range 0 (max 0 (n - 1))) ] in
    let* span_id = frequency [ (9, return ids.(p)); (1, return 0) ] in
    let* parent_id =
      frequency
        [
          (6, return 0);
          ( 13,
            if p = 0 then return 0
            else map (fun q -> ids.(q)) (int_range 0 (p - 1)) );
          (1, map (fun q -> ids.(q)) (int_range n (size - 1)));
        ]
    in
    let* trace_id = int_range 0 3 in
    let* jitter = float_bound_exclusive 4. in
    return (float_of_int i +. jitter, respan e ~trace_id ~span_id ~parent_id)
  in
  let* events = flatten_l (List.init n event) in
  return
    (List.map snd
       (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) events))

let arb_analyzer_script =
  QCheck.make
    ~print:(fun events ->
      String.concat "\n"
        (List.map (Format.asprintf "%a" Trace.pp_event) events))
    analyzer_script_gen

let prop_streaming_matches_oracle =
  QCheck.Test.make ~count:500
    ~name:"streaming analyzer equals the reference on random scripts"
    arb_analyzer_script (fun events ->
      let got = forced (streamed events) in
      let reference = Analyzer_oracle.analyze events in
      let text max_traces s =
        Format.asprintf "%a" (Cup_obs.Analyzer.pp_summary ~max_traces) s
      in
      if got <> reference then QCheck.Test.fail_report "summaries differ";
      List.iter
        (fun max_traces ->
          if text max_traces got <> text max_traces reference then
            QCheck.Test.fail_reportf "pp_summary ~max_traces:%d differs"
              max_traces)
        [ 0; 5; List.length reference.traces ];
      true)

(* {1 Corrupt binary traces}

   No damaged .ctrace may crash the reader: every decoded node id,
   key, entry count and record length is range-checked, and a bad one
   ends the stream with a [Malformed] item. *)

(* [bytes] written as a .ctrace file and read back: the items, or the
   exception that escaped [Trace_reader.iter]. *)
let read_ctrace bytes =
  let path = Filename.temp_file "cup_damaged" ".ctrace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      let items = ref [] in
      match
        Trace_reader.iter path ~f:(fun _ item -> items := item :: !items)
      with
      | () -> Ok (List.rev !items)
      | exception e -> Error (Printexc.to_string e))

let ends_malformed name ~expect bytes =
  match read_ctrace bytes with
  | Error e -> Alcotest.failf "%s: %s escaped the reader" name e
  | Ok items -> (
      match List.rev items with
      | Trace_reader.Malformed msg :: _ ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S names the fault" name msg)
            true
            (String.starts_with ~prefix:expect msg)
      | _ -> Alcotest.failf "%s: the stream did not end Malformed" name)

let framed events =
  String.concat ""
    (List.map
       (fun e -> Binary_codec.encode_to_string (Binary_codec.Event e))
       events)

let test_corrupt_negative_node_id () =
  let e =
    Trace.Query_posted
      {
        at = Time.of_seconds 1.5;
        node = Node_id.of_int 5;
        key = Key.of_int 3;
        trace_id = 1;
        span_id = 1;
        parent_id = 0;
      }
  in
  (* length, tag, 8 time bytes, then the node id's zigzag varint: 5 is
     10, and 9 decodes to -5 *)
  let record = Bytes.of_string (framed [ e ]) in
  Alcotest.(check char) "node id byte" '\010' (Bytes.get record 10);
  Bytes.set record 10 '\009';
  ends_malformed "negative node id" ~expect:"negative node id -5"
    (Binary_codec.header ^ Bytes.to_string record)

let test_corrupt_negative_record_length () =
  (* eight continuation bytes, then bit 62: the varint wraps negative *)
  ends_malformed "negative record length" ~expect:"negative record length"
    (Binary_codec.header ^ "\x80\x80\x80\x80\x80\x80\x80\x80\x40"
   ^ String.make 64 'x')

let test_corrupt_huge_record_length () =
  (* 2^45 bytes announced, 64 present *)
  ends_malformed "huge record length" ~expect:"record length 35184372088832"
    (Binary_codec.header ^ "\x80\x80\x80\x80\x80\x80\x08" ^ String.make 64 'x')

(* The faults-audited benchmark run at seed 3 (1024-node CAN, crashes,
   loss and duplication), written as .ctrace and hit by 20 bit flips.
   One flip makes a node id negative; before the range checks that
   raised [Invalid_argument] from [Node_id.of_int]. *)
let test_corrupt_bit_flips () =
  let cfg =
    {
      Scenario.default with
      seed = 3;
      nodes = 1024;
      total_keys_override = Some 128;
      key_dist = `Zipf 0.9;
      query_rate = 50.;
      query_duration = 100.;
      crashes =
        Some { Scenario.crash_rate = 0.05; recover_after = 30.; warmup = 0. };
      loss = Some { Scenario.drop = 0.02; jitter = 0.5 };
      duplication = Some { Scenario.d_probability = 0.01 };
    }
  in
  let b = Buffer.create (1 lsl 22) and scratch = Buffer.create 128 in
  Buffer.add_string b Binary_codec.header;
  let live = Runner.Live.create cfg in
  Runner.Live.set_tracer live
    (Some (fun e -> Binary_codec.encode ~scratch b (Binary_codec.Event e)));
  ignore (Runner.Live.finish live);
  let bytes = Buffer.to_bytes b in
  let rng = Random.State.make [| 15 |] in
  for _ = 1 to 20 do
    let i =
      Binary_codec.header_length
      + Random.State.int rng (Bytes.length bytes - Binary_codec.header_length)
    in
    let bit = 1 lsl Random.State.int rng 8 in
    Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor bit))
  done;
  ends_malformed "20 bit flips" ~expect:"negative node id"
    (Bytes.to_string bytes)

(* A framed trace of [event_gen] events, then either a cut at a random
   offset or k random byte flips. *)
let arb_damaged_trace =
  let open QCheck.Gen in
  let damage =
    oneof
      [
        map (fun f -> `Cut f) (float_bound_exclusive 1.);
        map
          (fun flips -> `Flip flips)
          (list_size (int_range 1 8)
             (pair (float_bound_exclusive 1.) (int_range 1 255)));
      ]
  in
  QCheck.make
    ~print:(fun (events, damage) ->
      Printf.sprintf "%d events, %s" (List.length events)
        (match damage with
        | `Cut f -> Printf.sprintf "cut at %.4f" f
        | `Flip flips ->
            String.concat "; "
              (List.map
                 (fun (p, x) -> Printf.sprintf "xor 0x%02x at %.4f" x p)
                 flips)))
    (pair (list_size (int_range 0 20) event_gen) damage)

let prop_damaged_trace_never_raises =
  QCheck.Test.make ~count:500
    ~name:"cut or flipped traces never raise out of the reader"
    arb_damaged_trace (fun (events, damage) ->
      let records =
        List.map
          (fun e -> Binary_codec.encode_to_string (Binary_codec.Event e))
          events
      in
      let trace = Binary_codec.header ^ String.concat "" records in
      let len = String.length trace in
      match damage with
      | `Flip flips ->
          let b = Bytes.of_string trace in
          List.iter
            (fun (p, x) ->
              let i = int_of_float (p *. float_of_int len) in
              Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x)))
            flips;
          (match read_ctrace (Bytes.to_string b) with
          | Ok _ -> true
          | Error e -> QCheck.Test.fail_reportf "%s escaped the reader" e)
      | `Cut f -> (
          let cut = int_of_float (f *. float_of_int (len + 1)) in
          (* the records that end at or before the cut *)
          let rec whole acc off = function
            | (e, r) :: rest when off + String.length r <= cut ->
                whole (e :: acc) (off + String.length r) rest
            | rest -> (List.rev acc, off, rest)
          in
          let kept, off, _ =
            whole [] Binary_codec.header_length (List.combine events records)
          in
          let on_boundary = cut = off && cut >= Binary_codec.header_length in
          match read_ctrace (String.sub trace 0 cut) with
          | Error e -> QCheck.Test.fail_reportf "%s escaped the reader" e
          | Ok items ->
              let read =
                List.filter_map
                  (function Trace_reader.Event e -> Some e | _ -> None)
                  items
              in
              let malformed =
                match List.rev items with
                | Trace_reader.Malformed _ :: _ -> true
                | _ -> false
              in
              if read <> kept then
                QCheck.Test.fail_report "the records before the cut changed";
              if malformed = on_boundary then
                QCheck.Test.fail_reportf "cut at byte %d of %d: %s" cut len
                  (if on_boundary then "a clean cut read as Malformed"
                   else "a cut inside a record did not end Malformed");
              true))

(* {1 Span index} *)

module Span_index = Cup_obs.Span_index

let test_span_index_dense_ids () =
  (* the runner's ids, from one counter: each sits in its home slot *)
  let t = Span_index.create ~fields:1 in
  for id = 1 to 100_000 do
    Span_index.set t (Span_index.add t id) 0 (2 * id)
  done;
  Alcotest.(check int) "all stored" 100_000 (Span_index.length t);
  Alcotest.(check int) "every id in its home slot" 1 (Span_index.max_probe t);
  for id = 1 to 100_000 do
    let s = Span_index.find t id in
    if s < 0 || Span_index.get t s 0 <> 2 * id then
      Alcotest.failf "id %d lost its field" id
  done

let test_span_index_strided_ids () =
  (* 10^5 ids equal in their low bits must not share one probe chain *)
  List.iter
    (fun shift ->
      let t = Span_index.create ~fields:0 in
      for i = 1 to 100_000 do
        ignore (Span_index.add t (i lsl shift))
      done;
      Alcotest.(check int) "all stored" 100_000 (Span_index.length t);
      let worst = Span_index.max_probe t in
      if worst > 32 then
        Alcotest.failf "stride 2^%d: a probe chain of %d slots" shift worst;
      for i = 1 to 100_000 do
        if Span_index.find t (i lsl shift) < 0 then
          Alcotest.failf "stride 2^%d: id %d lost" shift (i lsl shift)
      done;
      Alcotest.(check int) "absent id" (-1)
        (Span_index.find t (100_001 lsl shift)))
    [ 10; 20; 32; 40 ]

let prop_span_index_matches_hashtbl =
  QCheck.Test.make ~count:300
    ~name:"span index agrees with a Hashtbl across growth"
    QCheck.(
      list_of_size
        Gen.(int_range 0 3000)
        (pair
           (make
              Gen.(
                oneof
                  [
                    int_range (-5) 4000;
                    map (fun i -> i lsl 20) (int_range 1 4000);
                    int;
                  ]))
           small_nat))
    (fun writes ->
      let t = Span_index.create ~fields:2 and h = Hashtbl.create 16 in
      List.iter
        (fun (id, v) ->
          if id <> 0 then begin
            let s = Span_index.add t id in
            Span_index.set t s 1 v;
            Hashtbl.replace h id v
          end)
        writes;
      Span_index.length t = Hashtbl.length h
      && Span_index.find t 0 = -1
      && Hashtbl.fold
           (fun id v ok ->
             let s = Span_index.find t id in
             ok && s >= 0 && Span_index.get t s 1 = v
             && Span_index.get t s 0 = 0)
           h true)

let test_timeseries_rejects_bad_interval () =
  let live = Runner.Live.create quiet_base in
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Timeseries.attach: interval must be > 0") (fun () ->
      ignore (Timeseries.attach ~interval:0. live));
  ignore (Runner.Live.finish live)

(* {1 HTTP server} *)

module Http_server = Cup_obs.Http_server
module Serve = Cup_obs.Serve
module Resource = Cup_obs.Resource
module Audit = Cup_obs.Audit
module Registry = Cup_metrics.Registry

let test_http_server_smoke () =
  let srv =
    Http_server.start ~port:0
      ~routes:
        [
          ( "/ping",
            fun query ->
              let x =
                match List.assoc_opt "x" query with Some v -> v | None -> "-"
              in
              Http_server.text ("pong " ^ x) );
          ("/boom", fun _ -> failwith "handler exploded");
        ]
      ()
  in
  let port = Http_server.port srv in
  Alcotest.(check bool) "ephemeral port bound" true (port > 0);
  (match Http_server.get ~port "/ping?x=7" with
  | Ok (status, body) ->
      Alcotest.(check int) "ping status" 200 status;
      Alcotest.(check string) "ping body" "pong 7" body
  | Error e -> Alcotest.fail ("ping: " ^ e));
  (match Http_server.get ~port "/ping" with
  | Ok (status, body) ->
      Alcotest.(check int) "no-query status" 200 status;
      Alcotest.(check string) "no-query body" "pong -" body
  | Error e -> Alcotest.fail ("ping no-query: " ^ e));
  (match Http_server.get ~port "/missing" with
  | Ok (status, _) -> Alcotest.(check int) "unknown path" 404 status
  | Error e -> Alcotest.fail ("missing: " ^ e));
  (match Http_server.get ~port "/boom" with
  | Ok (status, _) -> Alcotest.(check int) "handler exception" 500 status
  | Error e -> Alcotest.fail ("boom: " ^ e));
  Http_server.stop srv;
  Http_server.stop srv (* idempotent *)

let field_bool name j =
  match Option.bind (Json.member name j) Json.to_bool with
  | Some b -> b
  | None -> Alcotest.fail ("missing bool field " ^ name)

let field_float name j =
  match Option.bind (Json.member name j) Json.to_float with
  | Some f -> f
  | None -> Alcotest.fail ("missing float field " ^ name)

(* Run one simulation with all the serving machinery attached; the
   finished /metrics must lead with the exact deterministic exposition
   and carry only cup_process_* families after it. *)
let test_serve_endpoints () =
  let cfg = { base with Scenario.seed = 2002 } in
  let live = Runner.Live.create cfg in
  let registry = Registry.create () in
  Runner.Live.set_metrics live (Some registry);
  let process = Registry.create () in
  let resource = Resource.attach ~interval:200. ~registry:process live in
  let srv = Serve.start ~refresh:100. ~resource:process ~registry live in
  Sink.attach live (Serve.sink srv);
  let port = Serve.port srv in
  Runner.Live.run_until live 650.;
  let health_json body =
    match Json.of_string body with
    | Ok json -> json
    | Error e -> Alcotest.fail ("health parse: " ^ e)
  in
  let mid_vt =
    match Http_server.get ~port "/health" with
    | Ok (200, body) ->
        let j = health_json body in
        Alcotest.(check bool) "mid-run not finished" false
          (field_bool "finished" j);
        let vt = field_float "virtual_time" j in
        Alcotest.(check bool) "virtual time advancing" true (vt > 0.);
        vt
    | Ok (status, _) ->
        Alcotest.fail (Printf.sprintf "mid-run health status %d" status)
    | Error e -> Alcotest.fail ("mid-run health: " ^ e)
  in
  ignore (Runner.Live.finish live);
  Resource.sample_now resource;
  Serve.mark_finished srv;
  (match Http_server.get ~port "/health" with
  | Ok (200, body) ->
      let j = health_json body in
      Alcotest.(check bool) "finished flag" true (field_bool "finished" j);
      Alcotest.(check bool) "virtual time advanced past mid-run" true
        (field_float "virtual_time" j >= mid_vt)
  | Ok (status, _) ->
      Alcotest.fail (Printf.sprintf "final health status %d" status)
  | Error e -> Alcotest.fail ("final health: " ^ e));
  (match Http_server.get ~port "/metrics" with
  | Ok (200, body) ->
      let deterministic = Registry.to_prometheus registry in
      let dlen = String.length deterministic in
      Alcotest.(check bool) "scrape at least as long" true
        (String.length body >= dlen);
      Alcotest.(check string) "deterministic families byte-identical"
        deterministic (String.sub body 0 dlen);
      let rest = String.sub body dlen (String.length body - dlen) in
      List.iter
        (fun line ->
          if String.trim line <> "" then
            Alcotest.(check bool)
              (Printf.sprintf "resource-only suffix: %s" line)
              true
              (String.length line > 0
              && (line.[0] = '#'
                  || String.starts_with ~prefix:"cup_process_" line)))
        (String.split_on_char '\n' rest);
      Alcotest.(check bool) "resource families present" true
        (List.exists
           (String.starts_with ~prefix:"cup_process_peak_rss_bytes")
           (String.split_on_char '\n' rest))
  | Ok (status, _) ->
      Alcotest.fail (Printf.sprintf "metrics status %d" status)
  | Error e -> Alcotest.fail ("metrics: " ^ e));
  (match Http_server.get ~port "/trace?n=5" with
  | Ok (200, body) ->
      let lines =
        List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' body)
      in
      Alcotest.(check bool) "trace tail non-empty, bounded" true
        (List.length lines > 0 && List.length lines <= 5);
      List.iter
        (fun line ->
          match Event_json.of_string line with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("trace line: " ^ e))
        lines
  | Ok (status, _) ->
      Alcotest.fail (Printf.sprintf "trace status %d" status)
  | Error e -> Alcotest.fail ("trace: " ^ e));
  Serve.stop srv

(* Serving must not perturb the simulation: the registry exposition of
   a served run equals that of a bare run of the same scenario. *)
let test_serve_does_not_perturb_metrics () =
  let cfg = { base with Scenario.seed = 2003 } in
  let bare =
    let live = Runner.Live.create cfg in
    let registry = Registry.create () in
    Runner.Live.set_metrics live (Some registry);
    ignore (Runner.Live.finish live);
    Registry.to_prometheus registry
  in
  let served =
    let live = Runner.Live.create cfg in
    let registry = Registry.create () in
    Runner.Live.set_metrics live (Some registry);
    let process = Registry.create () in
    let resource = Resource.attach ~interval:150. ~registry:process live in
    let srv = Serve.start ~refresh:75. ~resource:process ~registry live in
    Sink.attach live (Serve.sink srv);
    ignore (Runner.Live.finish live);
    Resource.sample_now resource;
    Serve.mark_finished srv;
    Serve.stop srv;
    Registry.to_prometheus registry
  in
  Alcotest.(check string) "served run byte-identical to bare run" bare served

(* {1 Resource telemetry} *)

let test_resource_snapshot_sane () =
  let s1 = Resource.snapshot () in
  let junk = ref [] in
  for i = 0 to 99_999 do
    junk := (i, float_of_int i) :: !junk
  done;
  ignore (Sys.opaque_identity !junk);
  let s2 = Resource.snapshot () in
  Alcotest.(check bool) "minor words monotone" true
    (s2.Resource.minor_words >= s1.Resource.minor_words);
  Alcotest.(check bool) "allocation visible" true
    (s2.Resource.minor_words > s1.Resource.minor_words);
  Alcotest.(check bool) "heap words positive" true (s2.Resource.heap_words > 0);
  Alcotest.(check bool) "rss non-negative" true (s2.Resource.rss_bytes >= 0);
  if s2.Resource.rss_bytes > 0 then
    Alcotest.(check bool) "peak >= current rss" true
      (s2.Resource.peak_rss_bytes >= s2.Resource.rss_bytes)

let test_resource_registry_namespace () =
  let live = Runner.Live.create quiet_base in
  let registry = Registry.create () in
  let sampler = Resource.attach ~interval:300. ~registry live in
  ignore (Runner.Live.finish live);
  Resource.sample_now sampler;
  let exposition = Registry.to_prometheus registry in
  List.iter
    (fun line ->
      if String.trim line <> "" then
        Alcotest.(check bool)
          (Printf.sprintf "cup_process_ prefix: %s" line)
          true
          (String.starts_with ~prefix:"cup_process_" line
          || String.starts_with ~prefix:"# HELP cup_process_" line
          || String.starts_with ~prefix:"# TYPE cup_process_" line))
    (String.split_on_char '\n' exposition);
  Alcotest.(check bool) "sampler saw a peak" true
    (Resource.peak_rss_bytes sampler >= 0);
  Alcotest.(check bool) "pending high-water sampled" true
    (Resource.pending_high_water sampler >= 0)

(* {1 Online invariant auditor} *)

let faulty_audit_base =
  {
    base with
    Scenario.seed = 31;
    crashes =
      Some { Scenario.crash_rate = 0.02; recover_after = 20.; warmup = 30. };
    loss = Some { Scenario.drop = 0.15; jitter = 0.5 };
  }

let run_audited cfg =
  let live = Runner.Live.create cfg in
  let auditor =
    Audit.create ~max_backlog:100_000
      ~backlog:(fun () -> Runner.Live.justification_backlog live)
      ~counters:(Runner.Live.counters live)
      ()
  in
  Sink.attach live (Audit.sink auditor);
  let r = Runner.Live.finish live in
  Audit.finish auditor;
  (auditor, r)

let test_audit_clean_runs_pass () =
  let auditor, _ = run_audited faulty_audit_base in
  Alcotest.(check bool) "events were checked" true
    (Audit.events_checked auditor > 0)

let check_violation name code f =
  match f () with
  | () -> Alcotest.fail (name ^ ": expected a violation")
  | exception Audit.Violation v ->
      Alcotest.(check string) (name ^ " code") code v.Audit.code

let delivery ~key ~kind ~at ~span ~parent ~entries =
  Trace.Update_delivered
    {
      at = Time.of_seconds at;
      from_ = Node_id.of_int 9;
      to_ = Node_id.of_int 4;
      key = Key.of_int key;
      kind;
      level = 1;
      answering = false;
      entries;
      trace_id = 1;
      span_id = span;
      parent_id = parent;
    }

let delivered = delivery ~key:3 ~kind:Cup_proto.Update.Refresh

let test_audit_catches_stale_delivery () =
  let a = Audit.create ~counters:(Counters.create ()) () in
  Audit.observe a (delivered ~at:100. ~span:1 ~parent:0 ~entries:[ (1, 500.) ]);
  check_violation "stale refresh" "V2" (fun () ->
      Audit.observe a
        (delivered ~at:110. ~span:2 ~parent:0 ~entries:[ (1, 400.) ]))

(* A first-time update replaces the receiver's entries for its key, so
   it resets that key's high-water mark and no other key's. *)
let test_audit_first_time_resets_one_key () =
  let a = Audit.create ~counters:(Counters.create ()) () in
  let refresh key = delivery ~key ~kind:Cup_proto.Update.Refresh in
  Audit.observe a
    (refresh 3 ~at:100. ~span:1 ~parent:0 ~entries:[ (1, 500.); (2, 500.) ]);
  Audit.observe a (refresh 5 ~at:100. ~span:2 ~parent:0 ~entries:[ (1, 500.) ]);
  Audit.observe a
    (delivery ~key:3 ~kind:Cup_proto.Update.First_time ~at:110. ~span:3
       ~parent:0 ~entries:[ (1, 400.) ]);
  Audit.observe a
    (refresh 3 ~at:120. ~span:4 ~parent:0 ~entries:[ (1, 420.); (2, 420.) ]);
  check_violation "stale refresh of another key" "V2" (fun () ->
      Audit.observe a
        (refresh 5 ~at:130. ~span:5 ~parent:0 ~entries:[ (1, 420.) ]))

let test_audit_exempts_expired_entries () =
  let a = Audit.create ~counters:(Counters.create ()) () in
  Audit.observe a (delivered ~at:100. ~span:1 ~parent:0 ~entries:[ (1, 500.) ]);
  (* expired on arrival: the receiver drops it, so no regression *)
  Audit.observe a (delivered ~at:600. ~span:2 ~parent:0 ~entries:[ (1, 450.) ]);
  Alcotest.(check int) "both events checked" 2 (Audit.events_checked a)

let test_audit_catches_orphan_span () =
  let a = Audit.create ~counters:(Counters.create ()) () in
  check_violation "orphan parent" "V4" (fun () ->
      Audit.observe a
        (delivered ~at:50. ~span:7 ~parent:99 ~entries:[ (1, 300.) ]));
  let b = Audit.create ~counters:(Counters.create ()) () in
  Audit.observe b (delivered ~at:50. ~span:7 ~parent:0 ~entries:[ (1, 300.) ]);
  check_violation "duplicate span" "V4" (fun () ->
      Audit.observe b
        (delivered ~at:51. ~span:7 ~parent:0 ~entries:[ (2, 300.) ]))

let test_audit_catches_conservation_leak () =
  let counters = Counters.create () in
  let a = Audit.create ~counters () in
  Counters.record_sent counters;
  Audit.observe a (delivered ~at:10. ~span:1 ~parent:0 ~entries:[]);
  (* one message still in flight once the run is over: V1 at finish *)
  check_violation "undelivered message" "V1" (fun () -> Audit.finish a)

let test_audit_catches_backlog_breach () =
  let a =
    Audit.create ~max_backlog:3
      ~backlog:(fun () -> 10)
      ~check_every:1
      ~counters:(Counters.create ())
      ()
  in
  check_violation "backlog bound" "V3" (fun () ->
      Audit.observe a (delivered ~at:5. ~span:1 ~parent:0 ~entries:[]))

(* A crash empties the node's cache, so an older expiry delivered after
   it is no regression.  A crash of another node, here the sender,
   resets nothing. *)
let test_audit_crash_resets_high_water () =
  let crash node at =
    Trace.Node_crashed { at = Time.of_seconds at; node = Node_id.of_int node }
  in
  let a = Audit.create ~counters:(Counters.create ()) () in
  Audit.observe a (delivered ~at:100. ~span:1 ~parent:0 ~entries:[ (1, 500.) ]);
  Audit.observe a (crash 4 105.);
  Audit.observe a (delivered ~at:110. ~span:2 ~parent:0 ~entries:[ (1, 400.) ]);
  Audit.observe a (crash 9 115.);
  check_violation "stale refresh after the sender's crash" "V2" (fun () ->
      Audit.observe a
        (delivered ~at:120. ~span:3 ~parent:0 ~entries:[ (1, 300.) ]))

(* A re-emitted id is caught however far apart the two emissions are:
   the span set grows several times in between. *)
let test_audit_span_emitted_twice () =
  let a = Audit.create ~counters:(Counters.create ()) () in
  for span = 1 to 5000 do
    Audit.observe a (delivered ~at:1. ~span ~parent:(span / 2) ~entries:[])
  done;
  match
    Audit.observe a (delivered ~at:2. ~span:17 ~parent:4999 ~entries:[])
  with
  | () -> Alcotest.fail "span id 17 passed a second time"
  | exception Audit.Violation v ->
      Alcotest.(check string) "code" "V4" v.Audit.code;
      Alcotest.(check string) "detail" "span id 17 emitted twice" v.detail

(* Random scripts for the auditor's V2 and V4 state: deliveries of
   every kind to three nodes and three keys, with expiries that go
   stale, repeat or are already expired; crashes; and now and then a
   repeated span id or a parent that was never emitted.  Each step is
   drawn as a function of the span ids emitted before it. *)
let audit_script_gen =
  let open QCheck.Gen in
  let node = map Node_id.of_int (int_range 0 2) in
  let pick ids f = ids.(int_of_float (f *. float_of_int (Array.length ids))) in
  let step =
    let* span =
      frequency
        [
          (60, return `Fresh);
          (1, map (fun f -> `Repeat f) (float_bound_exclusive 1.));
          (1, return `Legacy);
        ]
    and* parent =
      frequency
        [
          (50, return `Root);
          (50, map (fun f -> `Seen f) (float_bound_exclusive 1.));
          (1, return `Missing);
        ]
    and* body =
      frequency
        [
          ( 6,
            let* from_ = node and* to_ = node and* key = int_range 0 2 in
            let* kind =
              oneofl
                Cup_proto.Update.
                  [ First_time; Refresh; Refresh; Append; Delete ]
            in
            let* entries =
              list_size (int_range 0 3)
                (pair (int_range 0 2) (oneofl [ -1.; 5.; 10.; 10.; 20.; 30. ]))
            in
            return (fun ~at ~span_id ~parent_id ->
                Trace.Update_delivered
                  {
                    at = Time.of_seconds at;
                    from_;
                    to_;
                    key = Key.of_int key;
                    kind;
                    level = 1;
                    answering = false;
                    entries = List.map (fun (r, d) -> (r, at +. d)) entries;
                    trace_id = 1;
                    span_id;
                    parent_id;
                  }) );
          ( 1,
            map
              (fun node ~at ~span_id:_ ~parent_id:_ ->
                Trace.Node_crashed { at = Time.of_seconds at; node })
              node );
          ( 1,
            map
              (fun (from_, to_) ~at ~span_id ~parent_id ->
                Trace.Query_forwarded
                  {
                    at = Time.of_seconds at;
                    from_;
                    to_;
                    key = Key.of_int 0;
                    trace_id = 1;
                    span_id;
                    parent_id;
                  })
              (pair node node) );
        ]
    in
    return (span, parent, body)
  in
  let* steps = list_size (int_range 1 80) step in
  let* tolerate_stale = bool in
  let* context = opt (return "seed 7") in
  let emitted = ref [||] in
  let events =
    List.mapi
      (fun i (span, parent, body) ->
        let ids = !emitted in
        let span_id =
          match span with
          | `Repeat f when ids <> [||] -> pick ids f
          | `Legacy -> 0
          | _ -> i + 1
        and parent_id =
          match parent with
          | `Seen f when ids <> [||] -> pick ids f
          | `Missing -> 1000 + i
          | _ -> 0
        in
        let e = body ~at:(float_of_int i) ~span_id ~parent_id in
        (match Trace.event_span e with
        | Some (_, id, _) when id <> 0 -> emitted := Array.append ids [| id |]
        | _ -> ());
        e)
      steps
  in
  return (tolerate_stale, context, events)

(* The first violation [observe] raises along [events], with its
   index. *)
let first_violation observe events =
  let rec go i = function
    | [] -> None
    | e :: rest -> (
        match observe e with
        | () -> go (i + 1) rest
        | exception Audit.Violation v -> Some (i, v))
  in
  go 0 events

let prop_audit_matches_oracle =
  QCheck.Test.make ~count:1000
    ~name:"auditor reports the reference's first violation"
    (QCheck.make
       ~print:(fun (tolerate_stale, _, events) ->
         Printf.sprintf "tolerate_stale=%b\n%s" tolerate_stale
           (String.concat "\n"
              (List.map (Format.asprintf "%a" Trace.pp_event) events)))
       audit_script_gen)
    (fun (tolerate_stale, context, events) ->
      let a =
        Audit.create ~tolerate_stale ?context ~counters:(Counters.create ()) ()
      and reference = Audit_oracle.create ~tolerate_stale ?context () in
      let got = first_violation (Audit.observe a) events
      and want = first_violation (Audit_oracle.observe reference) events in
      let show = function
        | None -> "none"
        | Some (i, v) -> Format.asprintf "event %d: %a" i Audit.pp_violation v
      in
      if got <> want then
        QCheck.Test.fail_reportf "auditor: %s\nreference: %s" (show got)
          (show want);
      true)

(* {1 HTTP loopback framing} *)

(* The client reads exactly Content-Length bytes, so a mis-framed
   response would corrupt the second request on the same server;
   two back-to-back requests with exact body checks pin both the
   framing and the 404 body. *)
let test_http_two_request_loopback () =
  let body_with_newlines = "line one\nline two\n\nend\n" in
  let srv =
    Http_server.start ~port:0
      ~routes:[ ("/doc", fun _ -> Http_server.text body_with_newlines) ]
      ()
  in
  let port = Http_server.port srv in
  Fun.protect
    ~finally:(fun () -> Http_server.stop srv)
    (fun () ->
      (match Http_server.get ~port "/doc" with
      | Ok (status, body) ->
          Alcotest.(check int) "first request status" 200 status;
          Alcotest.(check string) "body survives framing exactly"
            body_with_newlines body
      | Error e -> Alcotest.fail ("first request: " ^ e));
      match Http_server.get ~port "/nowhere" with
      | Ok (status, body) ->
          Alcotest.(check int) "second request is a 404" 404 status;
          Alcotest.(check string) "404 carries its documented body"
            "not found\n" body
      | Error e -> Alcotest.fail ("second request: " ^ e))

(* {1 Per-key activity in the analyzer} *)

let multikey =
  { faulty with Scenario.total_keys_override = Some 3; query_rate = 1.5 }

let test_analyzer_per_key_activity () =
  let bytes, _ = trace_bytes multikey in
  let events = events_of_bytes bytes in
  let s = streamed events in
  Alcotest.(check bool) "several keys active" true (List.length s.per_key > 1);
  let keys = List.map fst s.per_key in
  Alcotest.(check bool) "sorted by key" true (List.sort compare keys = keys);
  let sum get =
    List.fold_left (fun acc (_, ks) -> acc + get ks) 0 s.per_key
  in
  Alcotest.(check int) "per-key hits sum to the total" s.hits
    (sum (fun ks -> ks.Cup_obs.Analyzer.k_hits));
  Alcotest.(check int) "per-key misses sum to the total" s.misses
    (sum (fun ks -> ks.Cup_obs.Analyzer.k_misses));
  Alcotest.(check int)
    "every event is either keyed or a membership event" s.events
    (sum (fun ks -> ks.Cup_obs.Analyzer.k_events) + s.membership);
  (* the reference analyzer builds the same per-key table, and the
     rendered summary prints it *)
  Alcotest.(check bool) "streaming per-key table equal" true
    ((Analyzer_oracle.analyze events).per_key = s.per_key);
  let rendered = Format.asprintf "%a" (Cup_obs.Analyzer.pp_summary ?max_traces:None) s in
  Alcotest.(check bool) "summary prints the per-key table" true
    (let needle = "per-key:" in
     let n = String.length needle and h = String.length rendered in
     let rec scan i =
       i + n <= h && (String.sub rendered i n = needle || scan (i + 1))
     in
     scan 0)

(* {1 Cost attribution} *)

module Attribution = Cup_metrics.Attribution
module Topk = Cup_obs.Topk

(* Capacity 256 covers every key, node and level id in [faulty], so
   the sketches stay in the exact regime — the setting under which the
   byte-identity guarantees are unconditional. *)
let attributed_run cfg =
  let live = Runner.Live.create cfg in
  let a =
    Attribution.create
      ~config:{ Attribution.default_config with capacity = 256 }
      ()
  in
  Runner.Live.set_attribution live (Some a);
  let r = Runner.Live.finish live in
  (a, r)

let render_attribution a =
  String.concat "\n"
    [
      Topk.table a ~by:Attribution.Key;
      Topk.table a ~by:Attribution.Node;
      Topk.table a ~by:Attribution.Level;
      Topk.csv a;
      Topk.prometheus a;
      Json.to_string (Topk.json a);
    ]

(* Every rendering of [multikey]'s attribution, pinned by digest. *)
let test_attribution_rendering_pinned () =
  let a, _ = attributed_run multikey in
  let rendering = render_attribution a in
  Alcotest.(check bool) "rendering nonempty" true
    (String.length rendering > 0);
  Alcotest.(check string) "rendering digest"
    "a81d8f09cd7bc5d1bf5cc21674315c72"
    (hex_digest rendering)

let test_attribution_deterministic_across_jobs () =
  let seeds = [ 3001; 3002; 3003; 3004 ] in
  let merged jobs =
    let parts =
      Cup_parallel.Pool.with_pool ~jobs (fun pool ->
          Cup_parallel.Pool.map pool
            (fun seed -> fst (attributed_run { multikey with seed }))
            seeds)
    in
    match parts with
    | [] -> assert false
    | first :: rest ->
        render_attribution (List.fold_left Attribution.merge first rest)
  in
  Alcotest.(check bool) "jobs=1 and jobs=4 identical after merge" true
    (merged 1 = merged 4)

let test_attribution_matches_counters_and_trace () =
  let plain, _ = trace_bytes multikey in
  let buf = Buffer.create 4096 in
  let live = Runner.Live.create multikey in
  let a = Attribution.create () in
  Runner.Live.set_attribution live (Some a);
  Runner.Live.set_tracer live
    (Some
       (fun e ->
         Buffer.add_string buf (Event_json.to_string e);
         Buffer.add_char buf '\n'));
  let r = Runner.Live.finish live in
  Alcotest.(check bool) "attribution does not perturb the trace" true
    (plain = Buffer.contents buf);
  let tot m = Attribution.total a ~by:Attribution.Key ~metric:m in
  Alcotest.(check int) "hits" (Counters.hits r.counters)
    (tot Attribution.Metric.hits);
  Alcotest.(check int) "misses" (Counters.misses r.counters)
    (tot Attribution.Metric.misses);
  Alcotest.(check int) "miss-cost hops"
    (Counters.miss_cost r.counters)
    (tot Attribution.Metric.miss_hops);
  Alcotest.(check int) "overhead hops"
    (Counters.overhead_cost r.counters)
    (tot Attribution.Metric.overhead_hops);
  (* the node axis ledgers the same events, attributed to receivers *)
  Alcotest.(check int) "node axis sees the same overhead"
    (Counters.overhead_cost r.counters)
    (Attribution.total a ~by:Attribution.Node
       ~metric:Attribution.Metric.overhead_hops)

let test_serve_topk_endpoint () =
  let cfg = { multikey with Scenario.seed = 2005 } in
  let live = Runner.Live.create cfg in
  let registry = Registry.create () in
  Runner.Live.set_metrics live (Some registry);
  let a = Attribution.create () in
  Runner.Live.set_attribution live (Some a);
  let srv = Serve.start ~refresh:100. ~registry live in
  let port = Serve.port srv in
  ignore (Runner.Live.finish live);
  Serve.mark_finished srv;
  (match Http_server.get ~port "/topk" with
  | Ok (200, body) -> (
      match Json.of_string body with
      | Error e -> Alcotest.fail ("topk parse: " ^ e)
      | Ok j ->
          Alcotest.(check string) "snapshot is the Topk document"
            (Json.to_string (Topk.json a))
            body;
          List.iter
            (fun axis ->
              match Json.member axis j with
              | Some (Json.Obj _) -> ()
              | _ -> Alcotest.fail ("missing axis object: " ^ axis))
            [ "key"; "node"; "level" ];
          let top_nonempty =
            match Option.bind (Json.member "key" j) (Json.member "top") with
            | Some (Json.List (_ :: _)) -> true
            | _ -> false
          in
          Alcotest.(check bool) "key axis has entries" true top_nonempty)
  | Ok (status, _) -> Alcotest.fail (Printf.sprintf "topk status %d" status)
  | Error e -> Alcotest.fail ("topk: " ^ e));
  (match Http_server.get ~port "/metrics" with
  | Ok (200, body) ->
      Alcotest.(check bool) "capped per-key families exposed" true
        (let needle = "cup_key_attr_total" in
         let n = String.length needle and h = String.length body in
         let rec scan i =
           i + n <= h && (String.sub body i n = needle || scan (i + 1))
         in
         scan 0)
  | Ok (status, _) -> Alcotest.fail (Printf.sprintf "metrics status %d" status)
  | Error e -> Alcotest.fail ("metrics: " ^ e));
  Serve.stop srv

let test_serve_topk_detached () =
  let live = Runner.Live.create { base with Scenario.seed = 2006 } in
  let registry = Registry.create () in
  Runner.Live.set_metrics live (Some registry);
  let srv = Serve.start ~refresh:100. ~registry live in
  let port = Serve.port srv in
  ignore (Runner.Live.finish live);
  Serve.mark_finished srv;
  (match Http_server.get ~port "/topk" with
  | Ok (200, body) ->
      Alcotest.(check string) "detached run reports no attribution"
        "{\"attribution\":false}" body
  | Ok (status, _) -> Alcotest.fail (Printf.sprintf "topk status %d" status)
  | Error e -> Alcotest.fail ("topk: " ^ e));
  Serve.stop srv

(* {1 Multi-run metrics merge} *)

let test_replicate_metrics_deterministic () =
  let module E = Cup_sim.Experiments in
  let cfg = { base with Scenario.seed = 77 } in
  let stats_seq, reg_seq = E.replicate_metrics cfg ~runs:3 in
  let stats_pool, reg_pool =
    Cup_parallel.Pool.with_pool ~jobs:2 (fun pool ->
        E.replicate_metrics ~pool cfg ~runs:3)
  in
  Alcotest.(check bool) "stats identical across jobs" true
    (stats_seq = stats_pool);
  Alcotest.(check string) "merged exposition identical across jobs"
    (Registry.to_prometheus reg_seq)
    (Registry.to_prometheus reg_pool);
  (* [%h] prints every float exactly, so the digest pins each bit *)
  let s = stats_seq in
  Alcotest.(check string) "stats and merged exposition digest"
    "a89214760bb13f6910fe12ba557a11d5"
    (hex_digest
       (Printf.sprintf "%d %h %h %h %h %h %h %h %h\n%s" s.runs s.total_mean
          s.total_stddev s.miss_mean s.miss_stddev s.misses_mean
          s.misses_stddev s.latency_mean s.latency_stddev
          (Registry.to_prometheus reg_seq)));
  (* the merge is a real aggregate: three runs' hop counters summed *)
  let single =
    let live = Runner.Live.create cfg in
    let registry = Registry.create () in
    Runner.Live.set_metrics live (Some registry);
    ignore (Runner.Live.finish live);
    registry
  in
  Alcotest.(check bool) "merged exposition differs from a single run" true
    (Registry.to_prometheus reg_seq <> Registry.to_prometheus single)

let () =
  Alcotest.run "cup_obs"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "float precision" `Quick
            test_json_float_precision;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "event json",
        [
          QCheck_alcotest.to_alcotest prop_event_json_roundtrip;
          Alcotest.test_case "legacy id-less parse" `Quick
            test_event_json_legacy_parse;
          Alcotest.test_case "rejects bad events" `Quick
            test_event_json_rejects_bad_events;
        ] );
      ( "spans",
        [
          Alcotest.test_case "trace bytes pinned" `Quick
            test_trace_bytes_pinned;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_spans_deterministic_across_jobs;
          Alcotest.test_case "metrics do not perturb trace" `Quick
            test_metrics_attachment_keeps_trace_bytes;
          Alcotest.test_case "registry exposition pinned" `Quick
            test_registry_exposition_pinned;
        ] );
      ( "analyzer",
        [
          Alcotest.test_case "no orphans under faults" `Quick
            test_analyzer_no_orphans_under_faults;
          Alcotest.test_case "latency matches counters" `Quick
            test_analyzer_latency_matches_counters;
          Alcotest.test_case "legacy and orphans" `Quick
            test_analyzer_handles_legacy_and_orphans;
          Alcotest.test_case "streaming matches legacy" `Quick
            test_streaming_analyzer_matches_legacy;
          QCheck_alcotest.to_alcotest prop_streaming_matches_oracle;
          Alcotest.test_case "cyclic parent links end" `Quick
            test_streaming_cyclic_parents_end;
        ] );
      ( "binary trace",
        [
          QCheck_alcotest.to_alcotest prop_binary_roundtrip;
          Alcotest.test_case "scale and line records" `Quick
            test_binary_scale_and_line_roundtrip;
          Alcotest.test_case "tiny-buffer writer ordering" `Quick
            test_binary_writer_tiny_buffer_ordering;
          Alcotest.test_case "reader classifies both formats" `Quick
            test_trace_reader_classifies_both_formats;
        ] );
      ( "corrupt trace",
        [
          Alcotest.test_case "negative node id" `Quick
            test_corrupt_negative_node_id;
          Alcotest.test_case "negative record length" `Quick
            test_corrupt_negative_record_length;
          Alcotest.test_case "huge record length" `Quick
            test_corrupt_huge_record_length;
          Alcotest.test_case "20 bit flips in a fault run" `Quick
            test_corrupt_bit_flips;
          QCheck_alcotest.to_alcotest prop_damaged_trace_never_raises;
        ] );
      ( "span index",
        [
          Alcotest.test_case "dense ids in home slots" `Quick
            test_span_index_dense_ids;
          Alcotest.test_case "strided ids spread" `Quick
            test_span_index_strided_ids;
          QCheck_alcotest.to_alcotest prop_span_index_matches_hashtbl;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "fanout and counts" `Quick
            test_sink_fanout_and_counts;
          Alcotest.test_case "jsonl round trip" `Quick
            test_jsonl_sink_roundtrip;
          Alcotest.test_case "live run matches counters" `Quick
            test_jsonl_sink_on_live_run_matches_counters;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "deltas sum to totals" `Quick
            test_timeseries_deltas_sum_to_totals;
          Alcotest.test_case "deterministic csv" `Quick
            test_timeseries_deterministic_and_csv;
          Alcotest.test_case "token-bucket queue depths" `Quick
            test_timeseries_queue_depths_under_token_bucket;
          Alcotest.test_case "bad interval" `Quick
            test_timeseries_rejects_bad_interval;
        ] );
      ( "http",
        [
          Alcotest.test_case "server smoke" `Quick test_http_server_smoke;
          Alcotest.test_case "two-request loopback framing" `Quick
            test_http_two_request_loopback;
          Alcotest.test_case "serve endpoints" `Quick test_serve_endpoints;
          Alcotest.test_case "serving does not perturb metrics" `Quick
            test_serve_does_not_perturb_metrics;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "per-key analyzer activity" `Quick
            test_analyzer_per_key_activity;
          Alcotest.test_case "rendering pinned" `Quick
            test_attribution_rendering_pinned;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_attribution_deterministic_across_jobs;
          Alcotest.test_case "matches counters, keeps trace bytes" `Quick
            test_attribution_matches_counters_and_trace;
          Alcotest.test_case "/topk endpoint" `Quick test_serve_topk_endpoint;
          Alcotest.test_case "/topk detached" `Quick test_serve_topk_detached;
        ] );
      ( "resource",
        [
          Alcotest.test_case "snapshot sane" `Quick test_resource_snapshot_sane;
          Alcotest.test_case "registry namespace" `Quick
            test_resource_registry_namespace;
        ] );
      ( "audit",
        [
          Alcotest.test_case "clean fault runs pass" `Quick
            test_audit_clean_runs_pass;
          Alcotest.test_case "catches stale delivery" `Quick
            test_audit_catches_stale_delivery;
          Alcotest.test_case "first-time resets one key" `Quick
            test_audit_first_time_resets_one_key;
          Alcotest.test_case "exempts expired entries" `Quick
            test_audit_exempts_expired_entries;
          Alcotest.test_case "catches orphan span" `Quick
            test_audit_catches_orphan_span;
          Alcotest.test_case "catches conservation leak" `Quick
            test_audit_catches_conservation_leak;
          Alcotest.test_case "catches backlog breach" `Quick
            test_audit_catches_backlog_breach;
          Alcotest.test_case "crash resets the node's high-water" `Quick
            test_audit_crash_resets_high_water;
          Alcotest.test_case "span id emitted twice" `Quick
            test_audit_span_emitted_twice;
          QCheck_alcotest.to_alcotest prop_audit_matches_oracle;
        ] );
      ( "replicate-metrics",
        [
          Alcotest.test_case "deterministic merge" `Quick
            test_replicate_metrics_deterministic;
        ] );
    ]
