(* Reference trace analyzer for the tests: a materializing two-pass
   analysis.  It holds the whole event list, indexes every span id in a
   first pass and keeps each span's event in a polymorphic [Hashtbl], so
   it is slow but plain.  [test_obs] checks [Analyzer.Streaming.finish]
   against it on real and random traces. *)

module Trace = Cup_sim.Trace
module Time = Cup_dess.Time
module Node_id = Cup_overlay.Node_id
module Key = Cup_overlay.Key
open Cup_obs.Analyzer

let type_name = function
  | Trace.Query_posted _ -> "query_posted"
  | Trace.Query_forwarded _ -> "query_forwarded"
  | Trace.Update_delivered _ -> "update_delivered"
  | Trace.Clear_bit_delivered _ -> "clear_bit_delivered"
  | Trace.Local_answer _ -> "local_answer"
  | Trace.Node_crashed _ -> "node_crashed"
  | Trace.Node_recovered _ -> "node_recovered"
  | Trace.Message_lost _ -> "message_lost"
  | Trace.Repair_query _ -> "repair_query"

let event_key = function
  | Trace.Query_posted { key; _ }
  | Trace.Query_forwarded { key; _ }
  | Trace.Update_delivered { key; _ }
  | Trace.Clear_bit_delivered { key; _ }
  | Trace.Local_answer { key; _ }
  | Trace.Message_lost { key; _ }
  | Trace.Repair_query { key; _ } ->
      Some (Key.to_int key)
  | Trace.Node_crashed _ | Trace.Node_recovered _ -> None

(* One pass over a full trace reconstructs every propagation tree from
   the span links.  Parents are indexed across the whole trace first,
   so an "orphan" really is a span whose parent was never emitted —
   not merely one delivered in the same engine event. *)
let analyze (events : Trace.event list) : summary =
  let n_events = List.length events in
  let by_type = Hashtbl.create 16 in
  let count_type e =
    let name = type_name e in
    Hashtbl.replace by_type name
      (1 + Option.value ~default:0 (Hashtbl.find_opt by_type name))
  in
  (* pass 1: index all span ids *)
  let known_spans = Hashtbl.create 1024 in
  List.iter
    (fun e ->
      match Trace.event_span e with
      | Some (_, span_id, _) when span_id <> 0 ->
          Hashtbl.replace known_spans span_id ()
      | _ -> ())
    events;
  (* pass 2: everything else, in trace (= time) order *)
  let membership = ref 0 and legacy = ref 0 in
  let orphans = ref 0 and orphan_examples = ref [] in
  let depth_of = Hashtbl.create 1024 (* span id -> depth in its trace *) in
  let children = Hashtbl.create 1024 (* span id -> child count *) in
  (* trace id -> (spans, max depth, max fanout, start, end, latest event,
     kinds seen) *)
  let traces = Hashtbl.create 256 in
  let span_event = Hashtbl.create 1024 (* span id -> event *) in
  let per_key = Hashtbl.create 16 in
  let key_stats k =
    match Hashtbl.find_opt per_key k with
    | Some s -> s
    | None ->
        let s =
          {
            k_events = 0;
            k_queries = 0;
            k_hits = 0;
            k_misses = 0;
            k_updates = 0;
            k_lost = 0;
            k_repairs = 0;
            k_miss_latencies = [];
          }
        in
        Hashtbl.replace per_key k s;
        s
  in
  (* FIFO matching of posted queries to local answers per (node, key):
     a Local_answer with [waiters = w] settles the w oldest
     outstanding posts at that node, exactly the coalescing the
     protocol performs.  Misses yield post→answer latencies. *)
  let outstanding = Hashtbl.create 256 in
  let hits = ref 0 and misses = ref 0 in
  let miss_latencies = ref [] in
  let root_kind e =
    match e with
    | Trace.Query_posted _ -> "query"
    | Trace.Repair_query _ -> "repair"
    | _ -> "update"
  in
  let note_trace ~trace_id ~depth ~fanout_parent e =
    if trace_id <> 0 then begin
      let at = Time.to_seconds (Trace.event_time e) in
      let entry =
        match Hashtbl.find_opt traces trace_id with
        | Some entry -> entry
        | None ->
            let entry = (ref 0, ref 0, ref 0, ref at, ref at, ref e, ref "") in
            Hashtbl.replace traces trace_id entry;
            entry
      in
      let spans, max_depth, max_fanout, start_at, end_at, latest, kind =
        entry
      in
      incr spans;
      if depth > !max_depth then max_depth := depth;
      (match fanout_parent with
      | Some parent ->
          let c =
            1 + Option.value ~default:0 (Hashtbl.find_opt children parent)
          in
          Hashtbl.replace children parent c;
          if c > !max_fanout then max_fanout := c
      | None -> ());
      if at < !start_at then start_at := at;
      if at >= !end_at then begin
        end_at := at;
        latest := e
      end;
      if depth = 1 then
        kind :=
          (match !kind with
          | "" -> root_kind e
          | k when k = root_kind e -> k
          | _ -> "mixed")
    end
  in
  List.iter
    (fun e ->
      count_type e;
      (match event_key e with
      | Some k -> (key_stats k).k_events <- (key_stats k).k_events + 1
      | None -> ());
      match Trace.event_span e with
      | None -> incr membership
      | Some (trace_id, span_id, parent_id) ->
          if span_id = 0 then incr legacy
          else begin
            let depth =
              if parent_id = 0 then 1
              else
                match Hashtbl.find_opt depth_of parent_id with
                | Some d -> d + 1
                | None ->
                    if not (Hashtbl.mem known_spans parent_id) then begin
                      (* Keep the first five examples; an int compare,
                         not a List.length re-count per orphan. *)
                      incr orphans;
                      if !orphans <= 5 then
                        orphan_examples :=
                          (span_id, parent_id) :: !orphan_examples
                    end;
                    1
            in
            Hashtbl.replace depth_of span_id depth;
            Hashtbl.replace span_event span_id e;
            note_trace ~trace_id ~depth
              ~fanout_parent:(if parent_id = 0 then None else Some parent_id)
              e
          end;
          (* per-key and latency accounting, span-less legacy events
             included *)
          (match e with
          | Trace.Query_posted { at; node; key; _ } ->
              let ks = key_stats (Key.to_int key) in
              ks.k_queries <- ks.k_queries + 1;
              let slot = (Node_id.to_int node, Key.to_int key) in
              let q =
                match Hashtbl.find_opt outstanding slot with
                | Some q -> q
                | None ->
                    let q = Queue.create () in
                    Hashtbl.replace outstanding slot q;
                    q
              in
              Queue.push (Time.to_seconds at) q
          | Trace.Local_answer { at; node; key; hit; waiters; _ } ->
              let ks = key_stats (Key.to_int key) in
              let slot = (Node_id.to_int node, Key.to_int key) in
              let q =
                match Hashtbl.find_opt outstanding slot with
                | Some q -> q
                | None -> Queue.create ()
              in
              let answer_at = Time.to_seconds at in
              for _ = 1 to waiters do
                match Queue.take_opt q with
                | None -> ()
                | Some posted ->
                    if hit then begin
                      incr hits;
                      ks.k_hits <- ks.k_hits + 1
                    end
                    else begin
                      incr misses;
                      ks.k_misses <- ks.k_misses + 1;
                      let lat = answer_at -. posted in
                      miss_latencies := lat :: !miss_latencies;
                      ks.k_miss_latencies <- lat :: ks.k_miss_latencies
                    end
              done
          | Trace.Update_delivered { key; _ } ->
              let ks = key_stats (Key.to_int key) in
              ks.k_updates <- ks.k_updates + 1
          | Trace.Message_lost { key; _ } ->
              let ks = key_stats (Key.to_int key) in
              ks.k_lost <- ks.k_lost + 1
          | Trace.Repair_query { key; _ } ->
              let ks = key_stats (Key.to_int key) in
              ks.k_repairs <- ks.k_repairs + 1
          | _ -> ()))
    events;
  let unanswered =
    Hashtbl.fold (fun _ q acc -> acc + Queue.length q) outstanding 0
  in
  (* critical path: from each trace's latest event, climb parent links
     back to the root *)
  let critical_path latest =
    let rec climb e acc =
      match Trace.event_span e with
      | Some (_, _, parent_id) when parent_id <> 0 -> (
          match Hashtbl.find_opt span_event parent_id with
          | Some parent -> climb parent (e :: acc)
          | None -> e :: acc)
      | _ -> e :: acc
    in
    climb latest []
  in
  let trees =
    Hashtbl.fold
      (fun trace_id
           (spans, max_depth, max_fanout, start_at, end_at, latest, kind) acc ->
        {
          trace_id;
          kind = (if !kind = "" then "update" else !kind);
          spans = !spans;
          depth = !max_depth;
          max_fanout = !max_fanout;
          start_at = !start_at;
          end_at = !end_at;
          critical_path = Lazy.from_val (critical_path !latest);
        }
        :: acc)
      traces []
  in
  let trees = List.sort (fun a b -> Int.compare a.trace_id b.trace_id) trees in
  let lat = Array.of_list !miss_latencies in
  Array.sort Float.compare lat;
  Hashtbl.iter
    (fun _ ks ->
      ks.k_miss_latencies <- List.sort Float.compare ks.k_miss_latencies)
    per_key;
  {
    events = n_events;
    membership = !membership;
    legacy = !legacy;
    by_type =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun name c acc -> (name, c) :: acc) by_type []);
    traces = trees;
    orphans = !orphans;
    orphan_examples = List.rev !orphan_examples;
    hits = !hits;
    misses = !misses;
    unanswered;
    miss_latencies = lat;
    per_key =
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Hashtbl.fold (fun k s acc -> (k, s) :: acc) per_key []);
  }
