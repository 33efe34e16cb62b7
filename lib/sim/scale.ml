(* Batch-synchronous sharded CUP runs over the arithmetic ring overlay.
   See scale.mli for the synchronization and byte-identity contract. *)

module Ring = Cup_overlay.Ring
module Route = Cup_overlay.Route
module Node_id = Cup_overlay.Node_id
module Key = Cup_overlay.Key
module Node = Cup_proto.Node
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

(* {1 Events}

   Messages carry the emitting node and its per-source emission
   sequence number: (src, seq) is globally unique, making the in-window
   sort key a total order.  Workload events carry their pre-generation
   index, which is globally unique and increasing by construction. *)

type payload =
  | P_query of Key.t
  | P_update of Update.t * bool (* answering *)
  | P_clear of Key.t

type msg = { dst : int; cls : int; src : int; seq : int; payload : payload }

type local_ev =
  | L_refresh of { key : int; idx : int }
  | L_post of { node : int; key : int; idx : int }

type work = W_msg of msg | W_local of local_ev

(* Canonical in-window order of deliveries: destination, message class
   (query, update, clear-bit), source, then the source's emission
   sequence.  (src, seq) is globally unique, so no two messages tie. *)
let compare_msg (a : msg) (b : msg) =
  if a.dst <> b.dst then Int.compare a.dst b.dst
  else if a.cls <> b.cls then Int.compare a.cls b.cls
  else if a.src <> b.src then Int.compare a.src b.src
  else Int.compare a.seq b.seq

let local_idx = function L_refresh { idx; _ } | L_post { idx; _ } -> idx

(* Canonical in-window processing order: deliveries first (they were
   in flight when the window opened), then the window's workload
   events by pre-generation index — which puts every authority refresh
   before every query post, since all refreshes are generated first.
   Every tie-break is an id independent of the shard layout. *)
let compare_work a b =
  match (a, b) with
  | W_msg a, W_msg b -> compare_msg a b
  | W_msg _, W_local _ -> -1
  | W_local _, W_msg _ -> 1
  | W_local a, W_local b -> Int.compare (local_idx a) (local_idx b)

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
  if cfg.nodes < 1 then fail "nodes must be >= 1";
  if cfg.keys < 1 then fail "keys must be >= 1";
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

let trace_event_of w work out =
  match work with
  | W_msg { dst; src; seq; payload; _ } ->
      let body =
        match payload with
        | P_query key -> B_query (Key.to_int key)
        | P_update (u, answering) ->
            B_update
              {
                key = Key.to_int u.Update.key;
                kind = u.Update.kind;
                level = u.Update.level;
                answering;
              }
        | P_clear key -> B_clear (Key.to_int key)
      in
      T_msg { w; dst; src; seq; body; out }
  | W_local (L_refresh { key; idx }) -> T_refresh { w; key; idx; out }
  | W_local (L_post { node; key; idx }) -> T_post { w; node; key; idx; out }

(* Each shard's trace segment is already in canonical order — works
   are processed in that order — so the global canonical order is a
   k-way merge of the per-shard segments, not a re-sort.  No two works
   tie (see {!compare_work}). *)
let merge_segments segments =
  let merge2 a b =
    let rec go acc a b =
      match (a, b) with
      | [], rest | rest, [] -> List.rev_append acc rest
      | ((wa, _) as xa) :: ta, ((wb, _) as xb) :: tb ->
          if compare_work wa wb <= 0 then go (xa :: acc) ta b
          else go (xb :: acc) a tb
    in
    go [] a b
  in
  List.fold_left merge2 [] segments

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
  Query_gen.fold gen ~init:() ~f:(fun () (ev : Query_gen.event) ->
      push_local
        (window_of (Time.to_seconds ev.at))
        (shard_of ev.node_index)
        (L_post { node = ev.node_index; key = ev.key_index; idx = !idx });
      incr idx);
  (* {2 Shard state} *)
  let node_cfg = Node.default_config in
  let stores =
    Array.init shards (fun _ -> Node_store.create ~nodes:cfg.nodes node_cfg)
  in
  for k = 0 to cfg.keys - 1 do
    let auth = Ring.owner ring k in
    Node_store.add_local_key stores.(shard_of auth) (Node_id.of_int auth)
      (Key.of_int k)
  done;
  (* Per-source emission counters: shared array, but each index is
     written only by the shard that owns the node, so parallel windows
     never race. *)
  let emit_seq = Array.make cfg.nodes 0 in
  let sync : msg Window_sync.t = Window_sync.create ~shards ~windows in
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
  let traced = tracer <> None in
  (* With one shard the per-window work list is the canonical order
     already — processing order equals the merged order — so the
     tracer can be fed directly from the work loop, skipping the
     per-event (work, event) accumulation, reversal and merge.
     Multi-shard runs must keep the segment machinery for the k-way
     merge below; its output is byte-identical to this fast path. *)
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
    (* Only the deliveries need sorting.  [push_local] prepended the
       window's workload events in ascending pre-generation index — all
       refreshes, then all posts — so reversing the bin gives their
       canonical order, and they follow the sorted deliveries. *)
    let works =
      List.rev_append
        (List.rev_map
           (fun m -> W_msg m)
           (List.sort compare_msg (Window_sync.drain sync ~shard:s ~window:w)))
        (List.rev_map (fun l -> W_local l) locals.(w).(s))
    in
    locals.(w).(s) <- [];
    let out = ref [] in
    let lines = ref [] in
    let emitted = ref 0 in
    let emit src cls payload to_ =
      let dst = Node_id.to_int to_ in
      let seq = emit_seq.(src) in
      emit_seq.(src) <- seq + 1;
      incr emitted;
      out := { dst; cls; src; seq; payload } :: !out
    in
    let exec node acts =
      List.iter
        (fun (act : Node.action) ->
          match act with
          | Node.Send_query { to_; key } ->
              t.query_hops <- t.query_hops + 1;
              (match at with
              | Some a ->
                  Attribution.record_query_hop a ~key:(Key.to_int key)
                    ~node
              | None -> ());
              emit node 0 (P_query key) to_
          | Node.Send_update { to_; update; answering } ->
              (match update.Update.kind with
              | Update.First_time ->
                  if answering then t.ft_answer_hops <- t.ft_answer_hops + 1
                  else t.ft_proactive_hops <- t.ft_proactive_hops + 1
              | Update.Refresh -> t.refresh_hops <- t.refresh_hops + 1
              | Update.Delete -> t.delete_hops <- t.delete_hops + 1
              | Update.Append -> t.append_hops <- t.append_hops + 1);
              emit node 1 (P_update (update, answering)) to_
          | Node.Send_clear_bit { to_; key } ->
              t.clear_hops <- t.clear_hops + 1;
              (match at with
              | Some a ->
                  Attribution.record_clear_bit_hop a ~key:(Key.to_int key)
                    ~node ~now:now_s
              | None -> ());
              emit node 2 (P_clear key) to_
          | Node.Answer_local { posted_at; hit; key; _ } ->
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
                List.iter
                  (fun p ->
                    t.latency_hops <-
                      t.latency_hops
                      + int_of_float
                          (Float.round ((now_s -. Time.to_seconds p) /. width)))
                  posted_at
              end)
        acts
    in
    List.iter
      (fun work ->
        let emitted0 = !emitted in
        (match work with
        | W_msg m -> (
            t.deliveries <- t.deliveries + 1;
            let nid = Node_id.of_int m.dst in
            let from = Node_id.of_int m.src in
            match m.payload with
            | P_query key ->
                exec m.dst
                  (Node_store.handle_query store ~node:nid ~now
                     ~owner:(owns m.dst key) ~route
                     (Node.From_neighbor from) key)
            | P_update (u, answering) ->
                (match at with
                | Some a ->
                    let key = Key.to_int u.Update.key in
                    let overhead =
                      match u.Update.kind with
                      | Update.First_time -> not answering
                      | Update.Refresh | Update.Delete | Update.Append -> true
                    in
                    if answering then
                      Attribution.record_update_hop a ~key ~node:m.dst
                        ~level:u.Update.level ~overhead ~now:now_s
                    else
                      Attribution.record_update_delivered a ~key ~node:m.dst
                        ~level:u.Update.level ~overhead ~now:now_s
                | None -> ());
                exec m.dst (Node_store.handle_update store ~node:nid ~now ~from u)
            | P_clear key ->
                exec m.dst
                  (Node_store.handle_clear_bit store ~node:nid ~now ~from key))
        | W_local (L_refresh { key; _ }) ->
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
        | W_local (L_post { node; key; _ }) ->
            t.posts <- t.posts + 1;
            let k = Key.of_int key in
            let acts =
              Node_store.handle_query store ~node:(Node_id.of_int node) ~now
                ~owner:(owns node k) ~route (Node.From_local now) k
            in
            let hit =
              List.exists
                (function
                  | Node.Answer_local { hit = true; _ } -> true | _ -> false)
                acts
            in
            if not hit then t.misses <- t.misses + 1;
            (match at with
            | Some a ->
                if hit then Attribution.record_query a ~key ~node ~now:now_s
                else Attribution.record_query_miss a ~key ~node ~now:now_s
            | None -> ());
            exec node acts);
        if traced then
          match direct_tracer with
          | Some f -> f (trace_event_of w work (!emitted - emitted0))
          | None ->
              lines :=
                (work, trace_event_of w work (!emitted - emitted0)) :: !lines)
      works;
    (List.rev !out, List.rev !lines)
  in
  (* {2 The window barrier loop} *)
  let pool = if shards > 1 then Some (Pool.create ~jobs:shards) else None in
  let shard_ids = List.init shards Fun.id in
  Fun.protect
    ~finally:(fun () -> Option.iter Pool.shutdown pool)
    (fun () ->
      for w = 0 to windows - 1 do
        let results =
          match pool with
          | Some p -> Pool.map p (fun s -> process_shard w s) shard_ids
          | None -> List.map (fun s -> process_shard w s) shard_ids
        in
        (* Route every shard's outbox, in shard order then emission
           order, into the next window's bins. *)
        List.iter
          (fun (outs, _) ->
            List.iter
              (fun (m : msg) ->
                Window_sync.post sync ~shard:(shard_of m.dst) ~window:(w + 1) m)
              outs)
          results;
        match tracer with
        | None -> ()
        | Some _ when direct_tracer <> None -> ()
        | Some emit ->
            merge_segments (List.map snd results)
            |> List.iter (fun (_, ev) -> emit ev)
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
