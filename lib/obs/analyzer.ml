module Trace = Cup_sim.Trace
module Time = Cup_dess.Time
module Key = Cup_overlay.Key
module Node_key = Cup_overlay.Node_key

type tree = {
  trace_id : int;
  kind : string;  (** ["query"], ["update"], ["repair"] or ["mixed"] *)
  spans : int;
  depth : int;  (** longest root-to-leaf chain, roots at depth 1 *)
  max_fanout : int;  (** most children under one span *)
  start_at : float;
  end_at : float;
  critical_path : Trace.event list Lazy.t;
      (** root → latest event of the trace, following parent links *)
}

type key_stats = {
  mutable k_events : int;
  mutable k_queries : int;
  mutable k_hits : int;
  mutable k_misses : int;
  mutable k_updates : int;
  mutable k_lost : int;
  mutable k_repairs : int;
  mutable k_miss_latencies : float list;  (** seconds, sorted ascending *)
}

type summary = {
  events : int;
  membership : int;  (** crash/recover events (carry no span) *)
  legacy : int;  (** protocol events without span ids (legacy traces) *)
  by_type : (string * int) list;  (** sorted by type name *)
  traces : tree list;  (** sorted by trace id *)
  orphans : int;
  orphan_examples : (int * int) list;  (** (span_id, missing parent), ≤ 5 *)
  hits : int;
  misses : int;
  unanswered : int;  (** posted queries with no matching local answer *)
  miss_latencies : float array;  (** seconds, sorted ascending *)
  per_key : (int * key_stats) list;  (** sorted by key *)
}

(* Exact nearest-rank percentile over a sorted sample array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else if q <= 0. then sorted.(0)
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(Stdlib.min (n - 1) (Stdlib.max 0 (rank - 1)))

let mean_of sorted =
  let n = Array.length sorted in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. sorted /. float_of_int n

(* {2 Streaming analysis}

   One pass, constant work per event, and no event list:

   - span state lives in a {!Span_index}: depth, child count and arena
     record per span id, a few dozen bytes per span;
   - each span-carrying event is kept only as its {!Binary_codec} body
     in one append-only byte arena, and a critical path decodes from it
     only when it is forced, so a report decodes only the trees it
     prints;
   - the whole-file orphan rule ("parent never appears anywhere") needs
     no first pass: a child whose parent is unseen is recorded as a
     forward reference, and it is an orphan if the parent is still
     unseen at [finish];
   - per-key, per-trace and outstanding-query state sit in int-keyed
     tables, and latency samples in unboxed float vectors sorted once
     at [finish], so percentiles are exact.

   The test suite holds [finish] to a materializing reference analyzer
   on the same event sequence. *)

module Streaming = struct
  (* Growable unboxed float vector. *)
  module Fvec = struct
    type t = { mutable data : float array; mutable len : int }

    let create () = { data = [||]; len = 0 }

    let push v x =
      if v.len = Array.length v.data then begin
        let data = Array.make (max 16 (2 * v.len)) 0. in
        Array.blit v.data 0 data 0 v.len;
        v.data <- data
      end;
      v.data.(v.len) <- x;
      v.len <- v.len + 1

    let sorted v =
      let a = Array.sub v.data 0 v.len in
      Array.sort Float.compare a;
      a
  end

  module Int_tbl = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal

    (* Node_key's multiply-and-fold, without a [caml_hash] call. *)
    let hash id =
      let h = id * 0x2545F4914F6CDD1D in
      h lxor (h lsr 29)
  end)

  (* Span_index fields.  [depth = 0] marks a span referenced as a
     parent but not seen yet. *)
  let f_depth = 0
  let f_children = 1
  let f_off = 2
  let f_len = 3

  (* Per-trace accumulator. *)
  type tacc = {
    mutable a_spans : int;
    mutable a_depth : int;
    mutable a_fanout : int;
    mutable a_start : float;
    mutable a_end : float;
    mutable a_latest_off : int;
    mutable a_latest_len : int;
    mutable a_kind : string;
  }

  type kacc = {
    mutable a_events : int;
    mutable a_queries : int;
    mutable a_hits : int;
    mutable a_misses : int;
    mutable a_updates : int;
    mutable a_lost : int;
    mutable a_repairs : int;
    a_lat : Fvec.t;
  }

  (* [Trace.event] constructors in declaration order; [by_type] counts
     by this index. *)
  let type_names =
    [|
      "query_posted";
      "query_forwarded";
      "update_delivered";
      "clear_bit_delivered";
      "local_answer";
      "node_crashed";
      "node_recovered";
      "message_lost";
      "repair_query";
    |]

  (* Stands for an absent queue in [outstanding]; never pushed to. *)
  let no_posts : float Queue.t = Queue.create ()

  type t = {
    mutable events : int;
    mutable membership : int;
    mutable legacy : int;
    by_type : int array;
    spans : Span_index.t;
    arena : Buffer.t;
    (* (span id, parent id) of every child seen before its parent,
       newest first *)
    mutable forward : (int * int) list;
    traces : tacc Int_tbl.t;
    per_key : kacc Int_tbl.t;
    outstanding : float Queue.t Node_key.Index.t;
    mutable hits : int;
    mutable misses : int;
    lat : Fvec.t;
    mutable finished : bool;
  }

  let create () =
    {
      events = 0;
      membership = 0;
      legacy = 0;
      by_type = Array.make (Array.length type_names) 0;
      spans = Span_index.create ~fields:4;
      arena = Buffer.create 4096;
      forward = [];
      traces = Int_tbl.create 256;
      per_key = Int_tbl.create 16;
      outstanding = Node_key.Index.create ~absent:no_posts 256;
      hits = 0;
      misses = 0;
      lat = Fvec.create ();
      finished = false;
    }

  (* Count a keyed event under its type index and its key. *)
  let keyed t ty key =
    t.by_type.(ty) <- t.by_type.(ty) + 1;
    let k = Key.to_int key in
    let a =
      match Int_tbl.find t.per_key k with
      | a -> a
      | exception Not_found ->
          let a =
            {
              a_events = 0;
              a_queries = 0;
              a_hits = 0;
              a_misses = 0;
              a_updates = 0;
              a_lost = 0;
              a_repairs = 0;
              a_lat = Fvec.create ();
            }
          in
          Int_tbl.add t.per_key k a;
          a
    in
    a.a_events <- a.a_events + 1;
    a

  let root_kind = function
    | Trace.Query_posted _ -> "query"
    | Trace.Repair_query _ -> "repair"
    | _ -> "update"

  let trace_acc t trace_id =
    match Int_tbl.find t.traces trace_id with
    | a -> a
    | exception Not_found ->
        let a =
          {
            a_spans = 0;
            a_depth = 0;
            a_fanout = 0;
            a_start = Float.infinity;
            a_end = Float.neg_infinity;
            a_latest_off = 0;
            a_latest_len = 0;
            a_kind = "";
          }
        in
        Int_tbl.add t.traces trace_id a;
        a

  (* Tree bookkeeping for one span-carrying event; id-0 (legacy) events
     are only counted. *)
  let span t e ~at ~trace_id ~span_id ~parent_id =
    if span_id = 0 then t.legacy <- t.legacy + 1
    else begin
      let tbl = t.spans in
      (* Depth from the table as of this event: a forward parent
         reference gets depth 1. *)
      let depth =
        if parent_id = 0 then 1
        else
          let d = Span_index.get tbl (Span_index.add tbl parent_id) f_depth in
          if d > 0 then d + 1
          else begin
            t.forward <- (span_id, parent_id) :: t.forward;
            1
          end
      in
      let off = Buffer.length t.arena in
      Binary_codec.encode_body t.arena (Binary_codec.Event e);
      let len = Buffer.length t.arena - off in
      let s = Span_index.add tbl span_id in
      Span_index.set tbl s f_depth depth;
      Span_index.set tbl s f_off off;
      Span_index.set tbl s f_len len;
      if trace_id <> 0 then begin
        let at = Time.to_seconds at in
        let a = trace_acc t trace_id in
        a.a_spans <- a.a_spans + 1;
        if depth > a.a_depth then a.a_depth <- depth;
        if parent_id <> 0 then begin
          (* adding [span_id] may have moved the parent's slot *)
          let p = Span_index.find tbl parent_id in
          let c = Span_index.get tbl p f_children + 1 in
          Span_index.set tbl p f_children c;
          if c > a.a_fanout then a.a_fanout <- c
        end;
        if at < a.a_start then a.a_start <- at;
        if at >= a.a_end then begin
          a.a_end <- at;
          a.a_latest_off <- off;
          a.a_latest_len <- len
        end;
        if depth = 1 then
          a.a_kind <-
            (match a.a_kind with
            | "" -> root_kind e
            | k when k = root_kind e -> k
            | _ -> "mixed")
      end
    end

  (* FIFO matching of posted queries to local answers per (node, key):
     a Local_answer with [waiters = w] settles the w oldest outstanding
     posts at that node, exactly the coalescing the protocol performs.
     Misses yield post→answer latencies. *)
  let post t ~at ~node ~key =
    let packed = Node_key.pack node key in
    let q = Node_key.Index.find t.outstanding packed in
    let q =
      if q == no_posts then begin
        let q = Queue.create () in
        Node_key.Index.replace t.outstanding packed q;
        q
      end
      else q
    in
    Queue.push (Time.to_seconds at) q

  (* [no_posts] is empty, so a pair with no posts settles nothing. *)
  let answer t ks ~at ~node ~key ~hit ~waiters =
    let q = Node_key.Index.find t.outstanding (Node_key.pack node key) in
    let answer_at = Time.to_seconds at in
    for _ = 1 to min waiters (Queue.length q) do
      let posted = Queue.take q in
      if hit then begin
        t.hits <- t.hits + 1;
        ks.a_hits <- ks.a_hits + 1
      end
      else begin
        t.misses <- t.misses + 1;
        ks.a_misses <- ks.a_misses + 1;
        let lat = answer_at -. posted in
        Fvec.push t.lat lat;
        Fvec.push ks.a_lat lat
      end
    done

  let feed t e =
    if t.finished then invalid_arg "Analyzer.Streaming.feed: already finished";
    t.events <- t.events + 1;
    match e with
    | Trace.Query_posted { at; node; key; trace_id; span_id; parent_id } ->
        let ks = keyed t 0 key in
        ks.a_queries <- ks.a_queries + 1;
        span t e ~at ~trace_id ~span_id ~parent_id;
        post t ~at ~node ~key
    | Trace.Query_forwarded { at; key; trace_id; span_id; parent_id; _ } ->
        ignore (keyed t 1 key);
        span t e ~at ~trace_id ~span_id ~parent_id
    | Trace.Update_delivered { at; key; trace_id; span_id; parent_id; _ } ->
        let ks = keyed t 2 key in
        ks.a_updates <- ks.a_updates + 1;
        span t e ~at ~trace_id ~span_id ~parent_id
    | Trace.Clear_bit_delivered { at; key; trace_id; span_id; parent_id; _ } ->
        ignore (keyed t 3 key);
        span t e ~at ~trace_id ~span_id ~parent_id
    | Trace.Local_answer
        { at; node; key; hit; waiters; trace_id; span_id; parent_id } ->
        let ks = keyed t 4 key in
        span t e ~at ~trace_id ~span_id ~parent_id;
        answer t ks ~at ~node ~key ~hit ~waiters
    | Trace.Node_crashed _ ->
        t.by_type.(5) <- t.by_type.(5) + 1;
        t.membership <- t.membership + 1
    | Trace.Node_recovered _ ->
        t.by_type.(6) <- t.by_type.(6) + 1;
        t.membership <- t.membership + 1
    | Trace.Message_lost { at; key; trace_id; span_id; parent_id; _ } ->
        let ks = keyed t 7 key in
        ks.a_lost <- ks.a_lost + 1;
        span t e ~at ~trace_id ~span_id ~parent_id
    | Trace.Repair_query { at; key; trace_id; span_id; parent_id; _ } ->
        let ks = keyed t 8 key in
        ks.a_repairs <- ks.a_repairs + 1;
        span t e ~at ~trace_id ~span_id ~parent_id

  (* Root → event at [off, len) of the arena, following parent links,
     decoded when forced.  A path visits each span id at most once, so
     it never needs more climbs than the table has ids; the bound only
     cuts the cycles a corrupt trace can hold. *)
  let critical_path tbl arena off len =
    lazy
      (let bytes = Lazy.force arena in
       let rec climb off len acc budget =
         let e =
           match Binary_codec.decode_body bytes ~pos:off ~len with
           | Binary_codec.Event e -> e
           | _ -> assert false
         in
         match Trace.event_span e with
         | Some (_, _, parent_id) when parent_id <> 0 && budget > 0 ->
             let p = Span_index.find tbl parent_id in
             if p >= 0 && Span_index.get tbl p f_len > 0 then
               climb
                 (Span_index.get tbl p f_off)
                 (Span_index.get tbl p f_len)
                 (e :: acc) (budget - 1)
             else e :: acc
         | _ -> e :: acc
       in
       climb off len [] (Span_index.length tbl))

  let finish t =
    if t.finished then invalid_arg "Analyzer.Streaming.finish: already finished";
    t.finished <- true;
    let tbl = t.spans in
    let arena = lazy (Buffer.contents t.arena) in
    let trees =
      Int_tbl.fold
        (fun trace_id a acc ->
          {
            trace_id;
            kind = (if a.a_kind = "" then "update" else a.a_kind);
            spans = a.a_spans;
            depth = a.a_depth;
            max_fanout = a.a_fanout;
            start_at = a.a_start;
            end_at = a.a_end;
            critical_path =
              critical_path tbl arena a.a_latest_off a.a_latest_len;
          }
          :: acc)
        t.traces []
      |> List.sort (fun a b -> Int.compare a.trace_id b.trace_id)
    in
    let orphans =
      List.filter
        (fun (_, parent) ->
          Span_index.get tbl (Span_index.find tbl parent) f_depth = 0)
        (List.rev t.forward)
    in
    let unanswered =
      Node_key.Index.fold (fun _ q acc -> acc + Queue.length q) t.outstanding 0
    in
    let by_type = ref [] in
    Array.iteri
      (fun i c -> if c > 0 then by_type := (type_names.(i), c) :: !by_type)
      t.by_type;
    {
      events = t.events;
      membership = t.membership;
      legacy = t.legacy;
      by_type = List.sort (fun (a, _) (b, _) -> String.compare a b) !by_type;
      traces = trees;
      orphans = List.length orphans;
      orphan_examples = List.filteri (fun i _ -> i < 5) orphans;
      hits = t.hits;
      misses = t.misses;
      unanswered;
      miss_latencies = Fvec.sorted t.lat;
      per_key =
        Int_tbl.fold
          (fun k a acc ->
            ( k,
              {
                k_events = a.a_events;
                k_queries = a.a_queries;
                k_hits = a.a_hits;
                k_misses = a.a_misses;
                k_updates = a.a_updates;
                k_lost = a.a_lost;
                k_repairs = a.a_repairs;
                k_miss_latencies = Array.to_list (Fvec.sorted a.a_lat);
              } )
            :: acc)
          t.per_key []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
    }
end

(* {2 Reporting} *)

let pp_latencies fmt sorted =
  Format.fprintf fmt "p50=%.3fs p90=%.3fs p99=%.3fs max=%.3fs mean=%.3fs"
    (percentile sorted 0.5) (percentile sorted 0.9) (percentile sorted 0.99)
    (percentile sorted 1.0) (mean_of sorted)

let pp_tree fmt t =
  let path = Lazy.force t.critical_path in
  Format.fprintf fmt
    "trace %d (%s): %d spans, depth %d, fan-out %d, %.3fs → %.3fs@."
    t.trace_id t.kind t.spans t.depth t.max_fanout t.start_at t.end_at;
  Format.fprintf fmt "    critical path (%d hops):@." (List.length path);
  List.iter (fun e -> Format.fprintf fmt "      %a@." Trace.pp_event e) path

let pp_summary ?(max_traces = 5) fmt (s : summary) =
  Format.fprintf fmt "%d events (%d membership, %d legacy without spans)@."
    s.events s.membership s.legacy;
  List.iter
    (fun (name, c) -> Format.fprintf fmt "  %-20s %d@." name c)
    s.by_type;
  Format.fprintf fmt "propagation trees: %d, orphan spans: %d@."
    (List.length s.traces) s.orphans;
  List.iter
    (fun (span_id, parent) ->
      Format.fprintf fmt "  orphan: span %d references missing parent %d@."
        span_id parent)
    s.orphan_examples;
  (match s.traces with
  | [] -> ()
  | traces ->
      let depth = List.fold_left (fun a t -> Stdlib.max a t.depth) 0 traces in
      let fanout =
        List.fold_left (fun a t -> Stdlib.max a t.max_fanout) 0 traces
      in
      Format.fprintf fmt "  max depth %d, max fan-out %d@." depth fanout);
  Format.fprintf fmt
    "queries: %d hits, %d misses, %d unanswered at trace end@." s.hits
    s.misses s.unanswered;
  if Array.length s.miss_latencies > 0 then
    Format.fprintf fmt "miss latency: %a@." pp_latencies s.miss_latencies;
  (match s.per_key with
  | [] -> ()
  | per_key ->
      Format.fprintf fmt
        "per-key:@.  %6s %8s %8s %6s %8s %8s %6s %8s %10s@." "key" "events"
        "queries" "hits" "misses" "updates" "lost" "repairs" "p99-miss";
      List.iter
        (fun (k, ks) ->
          let lat = Array.of_list ks.k_miss_latencies in
          Format.fprintf fmt "  %6d %8d %8d %6d %8d %8d %6d %8d %9.3fs@." k
            ks.k_events ks.k_queries ks.k_hits ks.k_misses ks.k_updates
            ks.k_lost ks.k_repairs (percentile lat 0.99))
        per_key);
  let biggest =
    List.filteri
      (fun i _ -> i < max_traces)
      (List.sort
         (fun a b ->
           match Int.compare b.spans a.spans with
           | 0 -> Int.compare a.trace_id b.trace_id
           | c -> c)
         s.traces)
  in
  match biggest with
  | [] -> ()
  | trees ->
      Format.fprintf fmt "largest traces:@.";
      List.iter (fun t -> Format.fprintf fmt "  %a" pp_tree t) trees
