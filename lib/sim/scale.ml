(* Batch-synchronous sharded CUP runs over the arithmetic ring overlay.
   See scale.mli for the synchronization and byte-identity contract. *)

module Ring = Cup_overlay.Ring
module Route = Cup_overlay.Route
module Node_id = Cup_overlay.Node_id
module Key = Cup_overlay.Key
module Node_store = Cup_proto.Node_store
module Update = Cup_proto.Update
module Entry = Cup_proto.Entry
module Replica_id = Cup_proto.Replica_id
module Time = Cup_dess.Time
module Window_sync = Cup_dess.Window_sync
module Pool = Cup_parallel.Pool
module Query_gen = Cup_workload.Query_gen
module Attribution = Cup_metrics.Attribution

type config = {
  seed : int;
  nodes : int;
  keys : int;
  replicas : int;
  rate : float;
  shards : int;
  hop_delay : float;
  lifetime : float;
  query_start : float;
  query_duration : float;
  drain : float;
  zipf : float;
  attribution : int; (* top-K sketch capacity per axis; 0 = detached *)
}

let default =
  {
    seed = 1;
    nodes = 10_000;
    keys = 512;
    replicas = 2;
    rate = 2000.;
    shards = 1;
    hop_delay = 0.01;
    lifetime = 8.;
    query_start = 8.;
    query_duration = 10.;
    drain = 2.;
    zipf = 0.9;
    attribution = 0;
  }

type totals = {
  mutable posts : int;
  mutable hits : int;
  mutable misses : int;
  mutable answered : int;
  mutable latency_hops : int;
  mutable query_hops : int;
  mutable ft_answer_hops : int;
  mutable ft_proactive_hops : int;
  mutable refresh_hops : int;
  mutable delete_hops : int;
  mutable append_hops : int;
  mutable clear_hops : int;
  mutable deliveries : int;
  mutable refreshes : int;
}

let zero_totals () =
  {
    posts = 0;
    hits = 0;
    misses = 0;
    answered = 0;
    latency_hops = 0;
    query_hops = 0;
    ft_answer_hops = 0;
    ft_proactive_hops = 0;
    refresh_hops = 0;
    delete_hops = 0;
    append_hops = 0;
    clear_hops = 0;
    deliveries = 0;
    refreshes = 0;
  }

(* Summed in shard order at run end; integer addition is
   order-independent anyway. *)
let add_totals into from =
  into.posts <- into.posts + from.posts;
  into.hits <- into.hits + from.hits;
  into.misses <- into.misses + from.misses;
  into.answered <- into.answered + from.answered;
  into.latency_hops <- into.latency_hops + from.latency_hops;
  into.query_hops <- into.query_hops + from.query_hops;
  into.ft_answer_hops <- into.ft_answer_hops + from.ft_answer_hops;
  into.ft_proactive_hops <- into.ft_proactive_hops + from.ft_proactive_hops;
  into.refresh_hops <- into.refresh_hops + from.refresh_hops;
  into.delete_hops <- into.delete_hops + from.delete_hops;
  into.append_hops <- into.append_hops + from.append_hops;
  into.clear_hops <- into.clear_hops + from.clear_hops;
  into.deliveries <- into.deliveries + from.deliveries;
  into.refreshes <- into.refreshes + from.refreshes

type result = {
  config : config;
  totals : totals;
  windows : int;
  events : int;
  live_slots : int;
  dropped_at_horizon : int;
  wallclock : float;
  events_per_sec : float;
  attribution : Attribution.t option;
}

(* {1 Messages}

   A message crosses the window barrier through {!Window_sync} keyed by
   (destination, class, source), with an int argument — the key of a
   query or clear-bit, or an update's answering bit — and the update
   itself, or [no_update].  The canonical in-window order of
   deliveries is (dst, cls, src, per-source emission sequence): the
   exchange's stable sort gives it without comparing the sequence,
   which is counted only for trace records. *)

let cls_query = 0
let cls_update = 1
let cls_clear = 2

(* Workload events carry their pre-generation index, which is globally
   unique and increasing by construction.  A window's workload events
   follow its deliveries (they were in flight when the window opened),
   in index order — which puts every authority refresh before every
   query post, since all refreshes are generated first. *)
type local_ev =
  | L_refresh of { key : int; idx : int }
  | L_post of { node : int; key : int; idx : int }

(* Each float check is written so that NaN and infinity fail it. *)
let validate cfg =
  let fail msg = invalid_arg ("Scale.run: " ^ msg) in
  let positive name x =
    if not (Float.is_finite x && x > 0.) then
      fail (name ^ " must be finite and > 0")
  in
  let nonneg name x =
    if not (Float.is_finite x && x >= 0.) then
      fail (name ^ " must be finite and >= 0")
  in
  (* Node ids must fit the exchange's packed message key; key ids are
     held to the same bound, which the [.ctrace] codec shares. *)
  let ids name n =
    if n < 1 then fail (name ^ " must be >= 1");
    if n > Window_sync.id_limit then
      fail (Printf.sprintf "%s must be <= %d" name Window_sync.id_limit)
  in
  ids "nodes" cfg.nodes;
  ids "keys" cfg.keys;
  if cfg.replicas < 1 then fail "replicas must be >= 1";
  positive "rate" cfg.rate;
  if cfg.shards < 1 then fail "shards must be >= 1";
  positive "hop_delay" cfg.hop_delay;
  positive "lifetime" cfg.lifetime;
  nonneg "query_start" cfg.query_start;
  positive "query_duration" cfg.query_duration;
  nonneg "drain" cfg.drain;
  nonneg "zipf" cfg.zipf;
  if cfg.attribution < 0 then fail "attribution must be >= 0"

(* {1 Trace records}

   Traced runs hand the consumer one structured record per processed
   event instead of a preformatted string, so a binary sink can encode
   it compactly without the shard threads paying [Printf] costs.
   {!trace_line} is the canonical JSONL rendering — the byte format
   [--trace-out FILE.jsonl] has always written. *)

type trace_body =
  | B_query of int
  | B_update of { key : int; kind : Update.kind; level : int; answering : bool }
  | B_clear of int

type trace_event =
  | T_msg of {
      w : int;
      dst : int;
      src : int;
      seq : int;
      body : trace_body;
      out : int;
    }
  | T_refresh of { w : int; key : int; idx : int; out : int }
  | T_post of { w : int; node : int; key : int; idx : int; out : int }

let trace_line = function
  | T_msg { w; dst; src; seq; body; out } -> (
      match body with
      | B_query key ->
          Printf.sprintf
            "{\"w\":%d,\"type\":\"query\",\"dst\":%d,\"src\":%d,\"seq\":%d,\"key\":%d,\"out\":%d}"
            w dst src seq key out
      | B_update { key; kind; level; answering } ->
          Printf.sprintf
            "{\"w\":%d,\"type\":\"update\",\"dst\":%d,\"src\":%d,\"seq\":%d,\"key\":%d,\"kind\":\"%s\",\"level\":%d,\"answering\":%b,\"out\":%d}"
            w dst src seq key
            (Update.kind_to_string kind)
            level answering out
      | B_clear key ->
          Printf.sprintf
            "{\"w\":%d,\"type\":\"clear\",\"dst\":%d,\"src\":%d,\"seq\":%d,\"key\":%d,\"out\":%d}"
            w dst src seq key out)
  | T_refresh { w; key; idx; out } ->
      Printf.sprintf
        "{\"w\":%d,\"type\":\"refresh\",\"key\":%d,\"idx\":%d,\"out\":%d}" w key
        idx out
  | T_post { w; node; key; idx; out } ->
      Printf.sprintf
        "{\"w\":%d,\"type\":\"post\",\"node\":%d,\"key\":%d,\"idx\":%d,\"out\":%d}"
        w node key idx out

let trace_msg ~w ~key ~arg ~seq (u : Update.t) out =
  let cls = Window_sync.cls_of key in
  let body =
    if cls = cls_query then B_query arg
    else if cls = cls_update then
      B_update
        {
          key = Key.to_int u.key;
          kind = u.kind;
          level = u.level;
          answering = arg = 1;
        }
    else B_clear arg
  in
  T_msg
    {
      w;
      dst = Window_sync.dst_of key;
      src = Window_sync.src_of key;
      seq;
      body;
      out;
    }

(* Each shard's trace segment holds its deliveries in packed-key order,
   then its workload events in index order — the order it processed
   them — each record paired with that key or index.  Deliveries on
   different shards differ in [dst], and indices are unique, so the
   canonical order of a window is a merge of the segments' deliveries
   followed by a merge of their workload events. *)
let merge_segments segments =
  let by_key (a, _) (b, _) = Int.compare a b in
  List.fold_left (List.merge by_key) [] segments

let run ?tracer cfg =
  validate cfg;
  let t0 = Unix.gettimeofday () in
  let width = cfg.hop_delay in
  let sim_end = cfg.query_start +. cfg.query_duration +. cfg.drain in
  let windows = max 1 (int_of_float (Float.ceil (sim_end /. width))) in
  let shards = cfg.shards in
  let ring = Ring.create ~n:cfg.nodes in
  let shard_of node = node mod shards in
  let window_of t =
    let w = int_of_float (t /. width) in
    if w >= windows then windows - 1 else if w < 0 then 0 else w
  in
  (* {2 Workload pre-generation}

     All stochastic choices happen here, before any shard runs: the
     simulation itself draws no randomness, so its behaviour depends
     only on this event list — not on the shard layout.  Events are
     binned by (window, shard of the acting node) and stamped with a
     global pre-generation index. *)
  let locals = Array.init windows (fun _ -> Array.make shards []) in
  let idx = ref 0 in
  let push_local w s ev = locals.(w).(s) <- ev :: locals.(w).(s) in
  (* Authority refresh schedule: every key refreshes its whole
     directory each half-lifetime, with a deterministic per-key phase
     so the network-wide refresh load is spread evenly. *)
  let period = cfg.lifetime /. 2. in
  for k = 0 to cfg.keys - 1 do
    let auth = Ring.owner ring k in
    let frac =
      Int64.to_float
        (Int64.shift_right_logical
           (Cup_prng.Splitmix.mix (Int64.of_int ((k * 2) + 1)))
           11)
      *. 0x1p-53
    in
    let t = ref (frac *. period) in
    while !t < sim_end do
      push_local (window_of !t) (shard_of auth) (L_refresh { key = k; idx = !idx });
      incr idx;
      t := !t +. period
    done
  done;
  (* Poisson query arrivals; Zipf (or uniform) key popularity. *)
  let rng = Cup_prng.Rng.substream (Cup_prng.Rng.create ~seed:cfg.seed) "scale-queries" in
  let gen =
    Query_gen.create ~rng ~rate:cfg.rate
      ~start:(Time.of_seconds cfg.query_start)
      ~stop:(Time.of_seconds (cfg.query_start +. cfg.query_duration))
      ~nodes:cfg.nodes
      ~key_dist:
        (if cfg.zipf > 0. then Query_gen.Zipf (cfg.keys, cfg.zipf)
         else Query_gen.Uniform cfg.keys)
  in
  Query_gen.fold gen ~init:() ~f:(fun () gen ->
      let node = Query_gen.node_index gen in
      push_local
        (window_of (Time.to_seconds (Query_gen.at gen)))
        (shard_of node)
        (L_post { node; key = Query_gen.key_index gen; idx = !idx });
      incr idx);
  (* {2 Shard state} *)
  let node_cfg = Node_store.default_config in
  let stores =
    Array.init shards (fun _ -> Node_store.create ~nodes:cfg.nodes node_cfg)
  in
  for k = 0 to cfg.keys - 1 do
    let auth = Ring.owner ring k in
    Node_store.add_local_key stores.(shard_of auth) (Node_id.of_int auth)
      (Key.of_int k)
  done;
  let traced = tracer <> None in
  (* Per-source emission counters, for the [seq] of trace records only:
     shared array, but each index is written only by the shard that
     owns the node, so parallel windows never race. *)
  let emit_seq = if traced then Array.make cfg.nodes 0 else [||] in
  (* The update slot of queries and clear-bits. *)
  let no_update = Update.first_time ~key:(Key.of_int 0) ~entries:[] ~level:0 in
  let sync = Window_sync.create ~shards ~windows in
  let tot = Array.init shards (fun _ -> zero_totals ()) in
  (* One attribution layer per shard (each touched only by its own
     domain inside a window), merged exactly in shard order at run
     end. *)
  let attrs : Attribution.t option array =
    Array.init shards (fun _ ->
        if cfg.attribution = 0 then None
        else
          Some
            (Attribution.create
               ~config:
                 {
                   Attribution.default_config with
                   capacity = cfg.attribution;
                 }
               ()))
  in
  let owns node key = Ring.owner ring (Key.to_int key) = node in
  let route node key =
    match
      Ring.next_hop ring ~node:(Node_id.to_int node)
        ~target:(Ring.owner ring (Key.to_int key))
    with
    | None -> Route.Owner
    | Some h -> Route.Forward (Node_id.of_int h)
  in
  (* With one shard, processing order is the canonical order, so the
     tracer is fed directly as events are processed.  Multi-shard runs
     collect per-shard segments for the merge below; its output is
     byte-identical to this fast path. *)
  let direct_tracer =
    match tracer with Some f when shards = 1 -> Some f | _ -> None
  in
  (* {2 One shard, one window} *)
  let process_shard w s =
    let now_s = float_of_int w *. width in
    let now = Time.of_seconds now_s in
    let store = stores.(s) in
    let t = tot.(s) in
    let at = attrs.(s) in
    let msg_seg = ref [] and local_seg = ref [] in
    let record seg k ev =
      match direct_tracer with Some f -> f ev | None -> seg := (k, ev) :: !seg
    in
    let emitted = ref 0 in
    let emit src cls arg u to_ =
      let dst = Node_id.to_int to_ in
      let seq =
        if traced then begin
          let q = emit_seq.(src) in
          emit_seq.(src) <- q + 1;
          q
        end
        else 0
      in
      incr emitted;
      Window_sync.send sync ~shard:s ~to_shard:(shard_of dst) ~dst ~cls ~src
        ~arg ~seq u
    in
    let rec add_latency = function
      | [] -> ()
      | p :: rest ->
          t.latency_hops <-
            t.latency_hops
            + int_of_float
                (Float.round ((now_s -. Time.to_seconds p) /. width));
          add_latency rest
    in
    let rec exec node = function
      | [] -> ()
      | act :: rest ->
          (match (act : Node_store.action) with
          | Send_query { to_; key } ->
              t.query_hops <- t.query_hops + 1;
              (match at with
              | Some a ->
                  Attribution.record_query_hop a ~key:(Key.to_int key) ~node
              | None -> ());
              emit node cls_query (Key.to_int key) no_update to_
          | Send_update { to_; update; answering } ->
              (match update.Update.kind with
              | Update.First_time ->
                  if answering then t.ft_answer_hops <- t.ft_answer_hops + 1
                  else t.ft_proactive_hops <- t.ft_proactive_hops + 1
              | Update.Refresh -> t.refresh_hops <- t.refresh_hops + 1
              | Update.Delete -> t.delete_hops <- t.delete_hops + 1
              | Update.Append -> t.append_hops <- t.append_hops + 1);
              emit node cls_update (Bool.to_int answering) update to_
          | Send_clear_bit { to_; key } ->
              t.clear_hops <- t.clear_hops + 1;
              (match at with
              | Some a ->
                  Attribution.record_clear_bit_hop a ~key:(Key.to_int key)
                    ~node ~now:now_s
              | None -> ());
              emit node cls_clear (Key.to_int key) no_update to_
          | Answer_local { posted_at; hit; key; _ } ->
              if hit then begin
                t.hits <- t.hits + List.length posted_at;
                match at with
                | Some a ->
                    let key = Key.to_int key in
                    List.iter
                      (fun _ -> Attribution.record_hit a ~key ~node)
                      posted_at
                | None -> ()
              end
              else begin
                t.answered <- t.answered + List.length posted_at;
                add_latency posted_at
              end);
          exec node rest
    in
    (* Deliveries first, in packed-key order. *)
    for i = 0 to Window_sync.sort_inbox sync ~shard:s - 1 do
      let key = Window_sync.key sync ~shard:s i in
      let arg = Window_sync.arg sync ~shard:s i in
      let dst = Window_sync.dst_of key and cls = Window_sync.cls_of key in
      let emitted0 = !emitted in
      t.deliveries <- t.deliveries + 1;
      let nid = Node_id.of_int dst in
      let from = Node_id.of_int (Window_sync.src_of key) in
      let u = Window_sync.obj sync ~shard:s i in
      if cls = cls_query then begin
        let k = Key.of_int arg in
        exec dst
          (Node_store.handle_query store ~node:nid ~now ~owner:(owns dst k)
             ~route (Node_store.From_neighbor from) k)
      end
      else if cls = cls_update then begin
        (match at with
        | Some a ->
            let answering = arg = 1 in
            let key = Key.to_int u.Update.key in
            let overhead =
              match u.Update.kind with
              | Update.First_time -> not answering
              | Update.Refresh | Update.Delete | Update.Append -> true
            in
            if answering then
              Attribution.record_update_hop a ~key ~node:dst
                ~level:u.Update.level ~overhead ~now:now_s
            else
              Attribution.record_update_delivered a ~key ~node:dst
                ~level:u.Update.level ~overhead ~now:now_s
        | None -> ());
        exec dst (Node_store.handle_update store ~node:nid ~now ~from u)
      end
      else
        exec dst
          (Node_store.handle_clear_bit store ~node:nid ~now ~from
             (Key.of_int arg));
      if traced then
        record msg_seg key
          (trace_msg ~w ~key ~arg ~seq:(Window_sync.seq sync ~shard:s i) u
             (!emitted - emitted0))
    done;
    (* Then the window's workload events.  [push_local] prepended them
       in ascending pre-generation index, so the bin is reversed. *)
    List.iter
      (fun ev ->
        let emitted0 = !emitted in
        (match ev with
        | L_refresh { key; _ } ->
            t.refreshes <- t.refreshes + 1;
            let auth = Ring.owner ring key in
            let expiry = Time.of_seconds (now_s +. cfg.lifetime) in
            let entries =
              List.init cfg.replicas (fun r ->
                  Entry.make ~replica:(Replica_id.of_int r) ~expiry)
            in
            exec auth
              (Node_store.replica_refresh_batch store
                 ~node:(Node_id.of_int auth) ~now ~key:(Key.of_int key) entries)
        | L_post { node; key; _ } ->
            t.posts <- t.posts + 1;
            let k = Key.of_int key in
            let acts =
              Node_store.handle_query store ~node:(Node_id.of_int node) ~now
                ~owner:(owns node k) ~route (Node_store.From_local now) k
            in
            let hit =
              List.exists
                (function
                  | Node_store.Answer_local { hit = true; _ } -> true
                  | _ -> false)
                acts
            in
            if not hit then t.misses <- t.misses + 1;
            (match at with
            | Some a ->
                if hit then Attribution.record_query a ~key ~node ~now:now_s
                else Attribution.record_query_miss a ~key ~node ~now:now_s
            | None -> ());
            exec node acts);
        if traced then begin
          let out = !emitted - emitted0 in
          match ev with
          | L_refresh { key; idx } ->
              record local_seg idx (T_refresh { w; key; idx; out })
          | L_post { node; key; idx } ->
              record local_seg idx (T_post { w; node; key; idx; out })
        end)
      (List.rev locals.(w).(s));
    locals.(w).(s) <- [];
    (List.rev !msg_seg, List.rev !local_seg)
  in
  (* {2 The window barrier loop} *)
  let pool = if shards > 1 then Some (Pool.create ~jobs:shards) else None in
  let shard_ids = List.init shards Fun.id in
  Fun.protect
    ~finally:(fun () -> Option.iter Pool.shutdown pool)
    (fun () ->
      for w = 0 to windows - 1 do
        let segments =
          match pool with
          | Some p -> Pool.map p (process_shard w) shard_ids
          | None -> List.map (process_shard w) shard_ids
        in
        (* Every shard's outbox goes, in shard order then emission
           order, into the next window's inboxes. *)
        Window_sync.exchange sync ~window:w;
        match tracer with
        | Some emit when direct_tracer = None ->
            let emit_all l = List.iter (fun (_, ev) -> emit ev) l in
            emit_all (merge_segments (List.map fst segments));
            emit_all (merge_segments (List.map snd segments))
        | _ -> ()
      done);
  let totals = zero_totals () in
  Array.iter (fun t -> add_totals totals t) tot;
  (* Fold the per-shard sketches left-to-right in shard order; the
     merge is exact, so any fold shape gives the same result. *)
  let attribution =
    Array.fold_left
      (fun acc at ->
        match (acc, at) with
        | None, x | x, None -> x
        | Some a, Some b -> Some (Attribution.merge a b))
      None attrs
  in
  let live_slots =
    Array.fold_left (fun acc st -> acc + Node_store.live_slots st) 0 stores
  in
  let events = totals.deliveries + totals.posts + totals.refreshes in
  let wallclock = Unix.gettimeofday () -. t0 in
  {
    config = cfg;
    totals;
    windows;
    events;
    live_slots;
    dropped_at_horizon = Window_sync.dropped sync;
    wallclock;
    events_per_sec =
      (if wallclock > 0. then float_of_int events /. wallclock else 0.);
    attribution;
  }

let summary r =
  let c = r.config and t = r.totals in
  let b = Buffer.create 512 in
  Printf.bprintf b
    "scale: nodes=%d keys=%d replicas=%d rate=%g zipf=%g lifetime=%g \
     hop-delay=%g windows=%d\n"
    c.nodes c.keys c.replicas c.rate c.zipf c.lifetime c.hop_delay r.windows;
  Printf.bprintf b "queries: posted=%d hits=%d misses=%d answered=%d\n" t.posts
    t.hits t.misses t.answered;
  Printf.bprintf b
    "hops: query=%d ft-answer=%d ft-proactive=%d refresh=%d delete=%d \
     append=%d clear=%d\n"
    t.query_hops t.ft_answer_hops t.ft_proactive_hops t.refresh_hops
    t.delete_hops t.append_hops t.clear_hops;
  let miss_cost = t.query_hops + t.ft_answer_hops in
  let overhead =
    t.ft_proactive_hops + t.refresh_hops + t.delete_hops + t.append_hops
    + t.clear_hops
  in
  Printf.bprintf b "cost: miss=%d overhead=%d total=%d\n" miss_cost overhead
    (miss_cost + overhead);
  Printf.bprintf b "miss latency (hops): sum=%d answered=%d avg=%s\n"
    t.latency_hops t.answered
    (if t.answered = 0 then "-"
     else Printf.sprintf "%.2f" (float_of_int t.latency_hops /. float_of_int t.answered));
  Printf.bprintf b
    "state: live-slots=%d deliveries=%d refresh-events=%d \
     dropped-at-horizon=%d\n"
    r.live_slots t.deliveries t.refreshes r.dropped_at_horizon;
  Buffer.contents b
