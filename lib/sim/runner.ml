module Engine = Cup_dess.Engine
module Time = Cup_dess.Time
module Net = Cup_overlay.Net
module Route = Cup_overlay.Route
module Node_id = Cup_overlay.Node_id
module Key = Cup_overlay.Key
module Node_key = Cup_overlay.Node_key
module Splitmix = Cup_prng.Splitmix
module Node_store = Cup_proto.Node_store
module Update = Cup_proto.Update
module Update_queue = Cup_proto.Update_queue
module Replica_id = Cup_proto.Replica_id
module Entry = Cup_proto.Entry
module Counters = Cup_metrics.Counters
module Registry = Cup_metrics.Registry
module Histogram = Cup_metrics.Histogram
module Attribution = Cup_metrics.Attribution
module Rng = Cup_prng.Rng
module Dist = Cup_prng.Dist

let log_src = Logs.Src.create "cup.sim" ~doc:"CUP simulation runner"

module Log = (val Logs.src_log log_src : Logs.LOG)

type result = {
  counters : Counters.t;
  node_stats : Node_store.stats;
  queries_posted : int;
  replica_events : int;
  engine_events : int;
  wallclock : float;
  setup_seconds : float;
  events_per_sec : float;
  tracked_updates : int;
  justified_updates : int;
  profile : Engine.profile option;
}

(* Token-bucket mode: the Section 2.8 per-neighbor outgoing update
   channels of one node.  [drain_cb] is the drain callback, allocated
   once per channel the first time a drain is scheduled and reused for
   every subsequent drain event (the per-message closure allocation
   was a measurable share of the delivery path). *)
type channel_state = {
  queues : Update_queue.t Node_id.Table.t;
  mutable drain_scheduled : bool;
  mutable last_send : float;
  mutable drain_cb : Engine.t -> unit;
}

let no_drain : Engine.t -> unit = fun _ -> ()

(* Subscription-repair state for one (node, key): the node believes it
   sits in the key's propagation tree and expects updates before
   [r_deadline].  If the deadline passes without one, the node
   re-issues its interest up the (repaired) overlay path with capped
   exponential backoff; after [max_repair_attempts] it gives up and
   degrades to expiration-based polling (Section 2.9). *)
type repair_state = {
  r_node : Node_id.t;
  r_key : Key.t;
  mutable r_deadline : float; (* absolute seconds *)
  mutable r_attempts : int;
  mutable r_scheduled : bool; (* a check event is pending *)
  mutable r_started : float;
      (* when the first repair attempt of the current outage fired
         (absolute seconds); meaningful while [r_attempts > 0] *)
}

(* Stands for an absent state in [repair]; never written. *)
let no_repair =
  {
    r_node = Node_id.of_int 0;
    r_key = Key.of_int 0;
    r_deadline = 0.;
    r_attempts = 0;
    r_scheduled = false;
    r_started = 0.;
  }

let max_transport_retries = 4
let max_repair_attempts = 5

(* {2 Causal span context}

   When a tracer or a metrics registry is attached ("observing"),
   every root cause — a posted query, an origin-server replica event,
   a repair attempt — opens a trace, and the context below rides along
   the delivery path so each emitted event records which span caused
   it.  Ids come from [next_span], bumped in engine event order: the
   engine executes the same total order at every job count, so span
   ids are byte-deterministic too.

   When nothing is observing, every path threads the one shared
   [no_ctx] value and ids stay 0: no allocation, no counter bumps, so
   the hot path is unchanged from the untraced baseline. *)

type span_ctx = {
  sc_trace : int; (* trace id of the root cause *)
  sc_parent : int; (* span id of the causing event; 0 at a root *)
  sc_root_at : float; (* root-cause time, seconds (propagation latency) *)
}

let no_ctx = { sc_trace = 0; sc_parent = 0; sc_root_at = 0. }

(* [sid = 0] means "not observing": keep threading the shared context
   instead of allocating a copy. *)
let child_ctx ctx sid = if sid = 0 then ctx else { ctx with sc_parent = sid }

(* Pre-resolved registry handles, so the delivery path updates
   histograms without any by-name lookups.  [level_latency.(l)] is the
   propagation-latency histogram of tree level [l], grown on demand. *)
type metric_set = {
  registry : Registry.t;
  query_latency : Histogram.t;
  repair_latency : Histogram.t;
  mutable level_latency : Histogram.t option array;
}

type live = {
  cfg : Scenario.t;
  engine : Engine.t;
  net : Net.t;
  route : Node_id.t -> Key.t -> Route.hop;
      (* [Net.next_hop] for {!Node_store.handle_query}, counting a query
         it cannot route as unreachable; built once, not per query *)
  store : Node_store.t; (* every node's protocol state *)
  keys : Key.t array;
  authority : Node_id.t Key.Table.t;
  counters : Counters.t;
  capacity : float Node_id.Table.t; (* absent = full (1.0) *)
  channels : channel_state Node_id.Table.t;
  topo_rng : Rng.t;
  cap_rng : Rng.t;
  sample_rng : Rng.t;
  crash_rng : Rng.t; (* crash-victim picking *)
  loss_rng : Rng.t; (* per-delivery loss draws, in event order *)
  loss_salt : int64; (* per-run salt for per-channel drop rates *)
  reorder_rng : Rng.t; (* per-delivery reorder draws, in event order *)
  dup_rng : Rng.t; (* per-delivery duplication draws, in event order *)
  partition_salt : int64; (* per-run salt for island membership *)
  fault_mode : bool; (* any Scenario fault axis present *)
  repair : repair_state Node_key.Index.t;
  repair_timeout : float; (* seconds a subscriber waits for an answer *)
  repair_slack : float; (* grace past an entry expiry before repairing *)
  batches : Entry.t list ref Key.Table.t; (* authority-side refresh batching *)
  justif : float list Node_key.Index.t;
      (* (node, key) -> justification deadlines of updates applied
         there and not yet judged (Section 3.1), [[]] when none.
         Judged pairs are emptied in place, not removed, so the slot is
         reused by the next update at the same (node, key). *)
  mutable justif_backlog : int; (* deadlines held in [justif] *)
  inv_hop_delay : float; (* 1 / hop_delay, or 0 under zero delay *)
  mutable tracked_updates : int;
  mutable justified_updates : int;
  mutable queries_posted : int;
  mutable replica_events : int;
  mutable tracer : (Trace.event -> unit) option;
  mutable metrics : metric_set option;
  mutable attribution : Attribution.t option;
  mutable next_span : int; (* last span id handed out; 0 = none yet *)
  started : float; (* host wallclock once the overlay is built *)
  mutable setup_seconds : float; (* host seconds [create] took *)
}

(* Call sites build the [Trace.event] record lazily behind a
   [t.tracer <> None] test: tracing is off in every benchmark and most
   runs, and allocating a record per delivered message just to drop it
   in [emit] was pure garbage-collector load. *)
let emit t event =
  match t.tracer with Some f -> f event | None -> ()

let tracing t = t.tracer <> None
let observing t = t.tracer <> None || t.metrics <> None

(* Fresh span id, or 0 when nothing is observing (the counter must not
   advance then, so attaching a tracer never perturbs an untraced
   baseline and the disabled path allocates nothing). *)
let new_span t =
  if observing t then begin
    let id = t.next_span + 1 in
    t.next_span <- id;
    id
  end
  else 0

let level_hist ms level =
  let n = Array.length ms.level_latency in
  if level >= n then begin
    let grown = Array.make (Stdlib.max (level + 1) (2 * n)) None in
    Array.blit ms.level_latency 0 grown 0 n;
    ms.level_latency <- grown
  end;
  match ms.level_latency.(level) with
  | Some h -> h
  | None ->
      let h =
        Registry.histogram ms.registry
          ~help:"Update propagation latency from origin event to delivery"
          ~labels:[ ("level", string_of_int level) ]
          ~min_value:1e-3 "cup_update_propagation_seconds"
      in
      ms.level_latency.(level) <- Some h;
      h

let now t = Engine.now t.engine

let capacity_of t id =
  match Node_id.Table.find_opt t.capacity id with
  | Some c -> c
  | None -> 1.

let channel_of t id =
  match Node_id.Table.find_opt t.channels id with
  | Some ch -> ch
  | None ->
      let ch =
        {
          queues = Node_id.Table.create 8;
          drain_scheduled = false;
          last_send = Float.neg_infinity;
          drain_cb = no_drain;
        }
      in
      Node_id.Table.replace t.channels id ch;
      ch

(* {2 Message loss}

   The drop probability of a channel is a pure hash of (run salt,
   sender, receiver): asking for it never consumes randomness, so the
   rate of one channel cannot depend on traffic elsewhere.  Whether a
   given message is lost is then one Bernoulli draw from the dedicated
   "loss" substream; the engine executes events in the same total
   order at every job count, so the draw sequence — and therefore
   every loss — is byte-deterministic. *)

let channel_drop t ~from ~to_ =
  match t.cfg.loss with
  | None -> 0.
  | Some { Scenario.drop; jitter } ->
      if jitter <= 0. then drop
      else begin
        let mixed =
          Splitmix.mix
            (Int64.logxor t.loss_salt
               (Int64.of_int
                  ((Node_id.to_int from lsl 24) lxor Node_id.to_int to_)))
        in
        (* top 53 bits -> u uniform in [-1, 1) *)
        let u =
          (Int64.to_float (Int64.shift_right_logical mixed 11)
          /. 9007199254740992.)
          *. 2.
          -. 1.
        in
        Float.min 1. (Float.max 0. (drop *. (1. +. (jitter *. u))))
      end

let lost_in_transit t ~from ~to_ =
  match t.cfg.loss with
  | None -> false
  | Some _ -> Dist.bernoulli t.loss_rng ~p:(channel_drop t ~from ~to_)

(* {2 Partitions, reordering, duplication}

   Island membership is a pure hash of (run salt, node id) — like
   per-channel drop rates it costs no randomness, so turning the
   partition window on or off cannot shift any other draw stream.
   Reorder and duplication each have a dedicated substream consumed in
   event order, keeping all fault axes independently deterministic. *)

let in_island t id =
  match t.cfg.partition with
  | None -> false
  | Some { Scenario.fraction; _ } ->
      let mixed =
        Splitmix.mix
          (Int64.logxor t.partition_salt (Int64.of_int (Node_id.to_int id)))
      in
      (* top 53 bits -> uniform in [0, 1) *)
      Int64.to_float (Int64.shift_right_logical mixed 11) /. 9007199254740992.
      < fraction

let partition_active t =
  match t.cfg.partition with
  | None -> false
  | Some { Scenario.p_start; p_duration; _ } ->
      let tnow = Time.to_seconds (Engine.now t.engine) in
      let opens = t.cfg.query_start +. p_start in
      tnow >= opens && tnow < opens +. p_duration

let partition_blocks t ~from ~to_ =
  match t.cfg.partition with
  | None -> false
  | Some { Scenario.symmetric; _ } ->
      partition_active t
      &&
      let fi = in_island t from and ti = in_island t to_ in
      if symmetric then fi <> ti
      else (* asymmetric: the island hears nothing but is still heard *)
        ti && not fi

(* The loss draw is consumed unconditionally so the "loss" stream stays
   independent of whether the partition window happens to be open. *)
let dropped_in_transit t ~from ~to_ =
  let lost = lost_in_transit t ~from ~to_ in
  lost || partition_blocks t ~from ~to_

(* Per-message delivery delay: [hop_delay] exactly, unless reordering
   stretches this copy by up to [r_spread] extra hop delays — enough
   for later sends to overtake it. *)
let delivery_delay t =
  match t.cfg.reorder with
  | None -> t.cfg.hop_delay
  | Some { Scenario.r_probability; r_spread } ->
      if Dist.bernoulli t.reorder_rng ~p:r_probability then
        t.cfg.hop_delay *. (1. +. (r_spread *. Rng.float t.reorder_rng))
      else t.cfg.hop_delay

(* Drawn only for messages that were not dropped: a lost message has
   no copy to duplicate, and skipping the draw there keeps the stream
   aligned with what actually crossed the wire. *)
let duplicated_in_transit t =
  match t.cfg.duplication with
  | None -> false
  | Some { Scenario.d_probability } ->
      Dist.bernoulli t.dup_rng ~p:d_probability

(* Capped exponential backoff for transport-level query retries. *)
let retry_delay t attempt =
  t.cfg.hop_delay *. 4. *. Float.of_int (1 lsl Stdlib.min attempt 4)

(* Where a message is headed; a local answer crosses no edge. *)
let receiver : Node_store.action -> Node_id.t = function
  | Send_query { to_; _ }
  | Send_update { to_; _ }
  | Send_clear_bit { to_; _ } ->
      to_
  | Answer_local _ -> invalid_arg "Runner: a local answer crosses no edge"

let key_of : Node_store.action -> Key.t = function
  | Send_query { key; _ }
  | Send_clear_bit { key; _ }
  | Answer_local { key; _ } ->
      key
  | Send_update { update; _ } -> update.key

(* Updates queued on one node's outgoing channels, every neighbor's
   summed. *)
let channel_depth ch =
  Node_id.Table.fold (fun _ q acc -> acc + Update_queue.length q) ch.queues 0

(* {2 Justified-update accounting (Section 3.1)}

   An update pushed to a node is justified if a query for the key
   arrives at that node before the update's critical window closes
   (the carried entries' expiry).  We register a deadline when a
   non-answering update is applied at a node and judge all pending
   deadlines at the node's next query for the key. *)

let register_update_for_justification t ~node (update : Update.t) =
  let deadline =
    List.fold_left
      (fun acc (e : Entry.t) -> Float.max acc (Time.to_seconds e.expiry))
      0. update.entries
  in
  t.tracked_updates <- t.tracked_updates + 1;
  (match t.attribution with
  | Some a ->
      Attribution.record_delivery a ~key:(Key.to_int update.key)
        ~node:(Node_id.to_int node)
  | None -> ());
  let k = Node_key.pack node update.key in
  t.justif_backlog <- t.justif_backlog + 1;
  let pending =
    match Node_key.Index.find t.justif k with
    | [] -> []
    | deadlines ->
        (* Sweep entries whose critical window already closed: they can
           never count as justified, and without the sweep a (node, key)
           that receives updates but no queries grows its deadline list
           without bound for the whole run. *)
        let tnow = Time.to_seconds (Engine.now t.engine) in
        let pending = List.filter (fun d -> d >= tnow) deadlines in
        t.justif_backlog <-
          t.justif_backlog - List.length deadlines + List.length pending;
        pending
  in
  Node_key.Index.replace t.justif k (deadline :: pending)

let judge_pending_updates t ~node ~key =
  let k = Node_key.pack node key in
  match Node_key.Index.find t.justif k with
  | [] -> ()
  | deadlines ->
      let now = Time.to_seconds (Engine.now t.engine) in
      t.justif_backlog <- t.justif_backlog - List.length deadlines;
      List.iter
        (fun deadline ->
          if deadline >= now then begin
            t.justified_updates <- t.justified_updates + 1;
            match t.attribution with
            | Some a ->
                Attribution.record_justified a ~key:(Key.to_int key)
                  ~node:(Node_id.to_int node)
            | None -> ()
          end)
        deadlines;
      (* Empty in place: the slot lives on for the next update
         registered at this (node, key). *)
      Node_key.Index.replace t.justif k []

(* {2 Message transport}

   A handler's [Send_*] action is the message.  [perform_one] charges
   what its class pays at send and hands it to [wire], the one
   transport every message crosses: it counts the message sent, draws
   its loss, delay and duplication, and schedules each copy's delivery
   one (possibly stretched) [hop_delay] later.  Query and clear-bit
   hops are charged at send; update hops are charged at delivery, so
   that first-time-update hops can be classified by the receiver's
   pending flag. *)

let rec perform t ~ctx ~from = function
  | [] -> ()
  | a :: rest ->
      perform_one t ~ctx ~from a;
      perform t ~ctx ~from rest

and perform_one t ~ctx ~from : Node_store.action -> unit = function
  | Send_query { key; _ } as msg -> send_query t ~ctx ~from ~attempt:0 ~key msg
  | Send_clear_bit { key; _ } as msg ->
      if not t.cfg.piggyback_clear_bits then begin
        Counters.record_clear_bit_hop t.counters;
        match t.attribution with
        | Some a ->
            Attribution.record_clear_bit_hop a ~key:(Key.to_int key)
              ~node:(Node_id.to_int from)
              ~now:(Time.to_seconds (now t))
        | None -> ()
      end;
      (* The sender is cutting itself out of the key's tree: it no
         longer expects updates, so stop watching its deadline. *)
      if t.fault_mode then
        Node_key.Index.remove t.repair (Node_key.pack from key);
      wire t ~ctx ~from ~attempt:0 msg
  | Send_update { update; answering; _ } as msg ->
      send_update t ~ctx ~from ~answering update msg
  | Answer_local { posted_at; hit; key; _ } ->
      if tracing t then
        emit t
          (Trace.Local_answer
             {
               at = now t;
               node = from;
               key;
               hit;
               waiters = List.length posted_at;
               trace_id = ctx.sc_trace;
               span_id = new_span t;
               parent_id = ctx.sc_parent;
             });
      if hit then begin
        for _ = 1 to List.length posted_at do
          Counters.record_hit t.counters
        done;
        match t.attribution with
        | Some a ->
            let key = Key.to_int key and node = Node_id.to_int from in
            List.iter
              (fun _ -> Attribution.record_hit a ~key ~node)
              posted_at
        | None -> ()
      end
      else begin
        let n = now t in
        List.iter
          (fun posted ->
            let hops = Time.diff n posted *. t.inv_hop_delay in
            Counters.record_miss t.counters ~hops;
            (match t.attribution with
            | Some a ->
                Attribution.record_miss a ~key:(Key.to_int key)
                  ~node:(Node_id.to_int from)
                  ~now:(Time.to_seconds n)
            | None -> ());
            match t.metrics with
            | Some ms -> Histogram.add ms.query_latency hops
            | None -> ())
          posted_at
      end

(* [msg], a query for [key], crossing one overlay edge.  [attempt]
   counts transport retries of this logical query: 0 on the first
   send, bumped each time the message is lost on the wire or reaches a
   crashed node. *)
and send_query t ~ctx ~from ~attempt ~key msg =
  Counters.record_query_hop t.counters;
  (match t.attribution with
  | Some a ->
      Attribution.record_query_hop a ~key:(Key.to_int key)
        ~node:(Node_id.to_int from)
  | None -> ());
  if t.fault_mode then
    arm_repair t ~node:from ~key
      ~deadline:(Time.to_seconds (now t) +. t.repair_timeout);
  wire t ~ctx ~from ~attempt msg

and send_update t ~ctx ~from ~answering (update : Update.t) msg =
  match (update.kind, t.cfg.capacity_mode) with
  | Update.First_time, _ when answering ->
      (* Query answers always flow: a capacity-limited node degrades
         its dependents to standard caching but still answers them.
         Proactive first-time pushes are ordinary update propagation
         and take the capacity-limited paths below. *)
      wire t ~ctx ~from ~attempt:0 msg
  | _, Scenario.Bernoulli ->
      let c = capacity_of t from in
      if c >= 1. || Dist.bernoulli t.cap_rng ~p:c then
        wire t ~ctx ~from ~attempt:0 msg
      else Counters.record_dropped_update t.counters
  | _, Scenario.Token_bucket _ ->
      let to_ = receiver msg in
      let ch = channel_of t from in
      let queue =
        match Node_id.Table.find_opt ch.queues to_ with
        | Some q -> q
        | None ->
            let q = Update_queue.create t.cfg.queue_ordering in
            Node_id.Table.replace ch.queues to_ q;
            q
      in
      (* The span context must survive the queueing delay; it rides
         the queue as an opaque tag and is rebuilt at drain time. *)
      if observing t then
        Update_queue.push
          ~tag:(ctx.sc_trace, ctx.sc_parent, ctx.sc_root_at)
          queue update
      else Update_queue.push queue update;
      schedule_drain t from ch

(* The wire: one message from [from] to its receiver.  The message
   takes its span, then its loss draw (and the partition check), its
   delay draw and its duplication draw; a copy takes a span of its own
   and a delay one hop longer.  A copy is a transport message in its
   own right, with its own sent/delivered accounting; receivers
   tolerate it (queries coalesce in the pending set, entry application
   is idempotent under the last-writer-wins guard, clearing a cleared
   bit is a no-op). *)
and wire t ~ctx ~from ~attempt msg =
  Counters.record_sent t.counters;
  let sid = new_span t in
  if dropped_in_transit t ~from ~to_:(receiver msg) then begin
    Counters.record_transport_lost t.counters;
    message_lost t ~ctx ~from ~span:sid ~parent:ctx.sc_parent ~attempt msg
  end
  else begin
    deliver_after t ~ctx ~sid ~from ~attempt ~delay:(delivery_delay t) msg;
    if duplicated_in_transit t then begin
      Counters.record_sent t.counters;
      Counters.record_duplicate t.counters;
      let dsid = new_span t in
      deliver_after t ~ctx ~sid:dsid ~from ~attempt
        ~delay:(t.cfg.hop_delay +. delivery_delay t)
        msg
    end
  end

(* The one place a delivery is scheduled: each class under its own
   engine label, into its own delivery handler. *)
and deliver_after t ~ctx ~sid ~from ~attempt ~delay (msg : Node_store.action)
    =
  (* Constant options: a computed string would box a fresh [Some] per
     message. *)
  let label =
    match msg with
    | Send_query _ -> Some "deliver.query"
    | Send_update _ -> Some "deliver.update"
    | Send_clear_bit _ | Answer_local _ -> Some "deliver.clear_bit"
  in
  ignore
    (Engine.schedule_after ?label t.engine ~delay (fun _ ->
         match msg with
         | Send_query { to_; key } ->
             deliver_query t ~ctx ~sid ~from ~attempt ~to_ key msg
         | Send_update { to_; update; answering } ->
             deliver_update t ~ctx ~sid ~from ~to_ ~answering update msg
         | Send_clear_bit { to_; key } ->
             deliver_clear_bit t ~ctx ~sid ~from ~to_ key
         | Answer_local _ -> ()))

(* A message that will never arrive, lost on the wire or at a dead
   receiver: counted and traced.  A lost query's sender times out and
   re-routes it after a capped backoff; the retry descends from the
   lost message's span, so the repair cost shows up on the trace's
   critical path.  Updates are not retransmitted: the subscriber's
   justification-deadline repair (below) detects the gap and re-issues
   its interest instead.  A lost clear-bit is harmless: the upstream
   keeps pushing until the bit is cleared by a later cut-off or
   expiry. *)
and message_lost t ~ctx ~from ~span ~parent ~attempt (msg : Node_store.action)
    =
  Counters.record_lost_message t.counters;
  if tracing t then
    emit t
      (Trace.Message_lost
         {
           at = now t;
           from_ = from;
           to_ = receiver msg;
           key = key_of msg;
           trace_id = ctx.sc_trace;
           span_id = span;
           parent_id = parent;
         });
  match msg with
  | Send_query { key; _ } ->
      let ctx = child_ctx ctx span in
      ignore
        (Engine.schedule_after ~label:"transport.retry" t.engine
           ~delay:(retry_delay t attempt) (fun _ ->
             retry_query t ~ctx ~from ~key ~attempt:(attempt + 1)))
  | Send_update _ | Send_clear_bit _ | Answer_local _ -> ()

and deliver_query t ~ctx ~sid ~from ~attempt ~to_ key msg =
  if tracing t then
    emit t
      (Trace.Query_forwarded
         {
           at = now t;
           from_ = from;
           to_;
           key;
           trace_id = ctx.sc_trace;
           span_id = sid;
           parent_id = ctx.sc_parent;
         });
  if Net.is_alive t.net to_ then begin
    Counters.record_delivered t.counters;
    if attempt > 0 then Counters.record_repair t.counters;
    judge_pending_updates t ~node:to_ ~key;
    perform t ~ctx:(child_ctx ctx sid) ~from:to_
      (Node_store.handle_query t.store ~node:to_ ~now:(now t)
         ~owner:(Net.owns t.net to_ key) ~route:t.route
         (Node_store.From_neighbor from) key)
  end
  else begin
    (* The next hop crashed with the query in flight: the sender times
       out and re-routes around the hole the overlay has since
       repaired.  Transport accounting covers every dead receiver
       (graceful churn included), not just injected faults, so the
       conservation identity drains to zero in either case. *)
    Counters.record_transport_lost t.counters;
    if t.fault_mode then
      message_lost t ~ctx ~from ~span:(new_span t) ~parent:sid ~attempt msg
  end

(* Re-route a lost or bounced query from its original sender. *)
and retry_query t ~ctx ~from ~key ~attempt =
  if attempt > max_transport_retries then
    Counters.record_unreachable t.counters
  else if not (Net.is_alive t.net from) then
    (* The sender itself crashed while waiting; nobody is left to
       retry on this path. *)
    Counters.record_unreachable t.counters
  else begin
    Counters.record_retry t.counters;
    match Net.next_hop t.net from key with
    | Route.Stuck _ | Route.Owner ->
        (* Stuck: routing cannot converge from here.  Owner: the
           sender absorbed the key's zone while the query was in
           flight, so there is no upstream left to ask; local waiters
           fall back to expiration-based polling. *)
        Counters.record_unreachable t.counters
    | Route.Forward h ->
        send_query t ~ctx ~from ~attempt ~key
          (Node_store.Send_query { to_ = h; key })
  end

and deliver_clear_bit t ~ctx ~sid ~from ~to_ key =
  if tracing t then
    emit t
      (Trace.Clear_bit_delivered
         {
           at = now t;
           from_ = from;
           to_;
           key;
           trace_id = ctx.sc_trace;
           span_id = sid;
           parent_id = ctx.sc_parent;
         });
  if Net.is_alive t.net to_ then begin
    Counters.record_delivered t.counters;
    perform t
      ~ctx:(child_ctx ctx sid)
      ~from:to_
      (Node_store.handle_clear_bit t.store ~node:to_ ~now:(now t) ~from key)
  end
  else
    (* A clear-bit to a dead receiver needs no repair, but it must
       still leave the in-flight ledger. *)
    Counters.record_transport_lost t.counters

and deliver_update t ~ctx ~sid ~from ~to_ ~answering (update : Update.t) msg =
  if tracing t then
    emit t
      (Trace.Update_delivered
         {
           at = now t;
           from_ = from;
           to_;
           key = update.key;
           kind = update.kind;
           level = update.level;
           answering;
           entries =
             List.map
               (fun (e : Entry.t) ->
                 (Replica_id.to_int e.replica, Time.to_seconds e.expiry))
               update.entries;
           trace_id = ctx.sc_trace;
           span_id = sid;
           parent_id = ctx.sc_parent;
         });
  (match t.metrics with
  | Some ms when (not answering) && ctx != no_ctx ->
      Histogram.add
        (level_hist ms update.level)
        (Time.to_seconds (now t) -. ctx.sc_root_at)
  | _ -> ());
  let node_alive = Net.is_alive t.net to_ in
  (match update.kind with
  | Update.First_time -> Counters.record_first_time_hop t.counters ~answering
  | Update.Refresh -> Counters.record_update_hop t.counters `Refresh
  | Update.Delete -> Counters.record_update_hop t.counters `Delete
  | Update.Append -> Counters.record_update_hop t.counters `Append);
  (match t.attribution with
  | Some a ->
      (* Section 3.1 ledger split: a first-time update answering a
         pending query is miss cost, every other delivery is overhead. *)
      let overhead =
        match update.kind with
        | Update.First_time -> not answering
        | Update.Refresh | Update.Delete | Update.Append -> true
      in
      Attribution.record_update_hop a
        ~key:(Key.to_int update.key)
        ~node:(Node_id.to_int to_)
        ~level:update.level ~overhead
        ~now:(Time.to_seconds (now t))
  | None -> ());
  if node_alive then begin
    Counters.record_delivered t.counters;
    if not answering then register_update_for_justification t ~node:to_ update;
    if t.fault_mode then note_update_for_repair t ~node:to_ update;
    perform t
      ~ctx:(child_ctx ctx sid)
      ~from:to_
      (Node_store.handle_update t.store ~node:to_ ~now:(now t) ~from update)
  end
  else begin
    Counters.record_transport_lost t.counters;
    if t.fault_mode then begin
      (* The child crashed: the update is lost and the sender prunes
         the dead edge from its propagation tree so later updates stop
         burning hops on it.  Its loss record takes a span only when
         traced. *)
      message_lost t ~ctx ~from
        ~span:(if tracing t then new_span t else 0)
        ~parent:sid ~attempt:0 msg;
      if Net.is_alive t.net from then begin
        Node_store.drop_neighbor t.store ~node:from to_;
        Counters.record_repair t.counters
      end
    end
  end

(* {2 Subscription repair (fault mode)}

   A node that expects updates for a key — it forwarded a query up, or
   updates have been flowing to it — tracks a deadline; see
   [repair_state].  When the deadline passes with no update, the
   justification-deadline timeout fires: the node re-issues its
   interest along the current (already repaired) overlay path, with
   capped exponential backoff between attempts, and gives up into
   expiration-based polling after [max_repair_attempts]. *)

and arm_repair t ~node ~key ~deadline =
  let packed = Node_key.pack node key in
  let st = Node_key.Index.find t.repair packed in
  if st == no_repair then begin
    let st =
      {
        r_node = node;
        r_key = key;
        r_deadline = deadline;
        r_attempts = 0;
        r_scheduled = false;
        r_started = 0.;
      }
    in
    Node_key.Index.replace t.repair packed st;
    schedule_repair_check t st
  end
  else begin
    if deadline > st.r_deadline then st.r_deadline <- deadline;
    schedule_repair_check t st
  end

(* An update arrived: the subscription works.  Reset the attempt
   counter (counting a completed repair if we had been retrying) and
   push the deadline past the carried entries' expiry. *)
and note_update_for_repair t ~node (update : Update.t) =
  let expiry =
    List.fold_left
      (fun acc (e : Entry.t) -> Float.max acc (Time.to_seconds e.expiry))
      0. update.entries
  in
  let tnow = Time.to_seconds (now t) in
  let deadline =
    Float.max (expiry +. t.repair_slack) (tnow +. t.repair_timeout)
  in
  let st = Node_key.Index.find t.repair (Node_key.pack node update.key) in
  if st == no_repair then
    (* Updates can start flowing to a node that never queried in fault
       mode (e.g. interest remapped to it by churn); watch those
       subscriptions too. *)
    arm_repair t ~node ~key:update.key ~deadline
  else begin
    if st.r_attempts > 0 then begin
      st.r_attempts <- 0;
      Counters.record_repair t.counters;
      (* Update flow restored: the outage ran from the first re-issued
         interest to this delivery. *)
      match t.metrics with
      | Some ms -> Histogram.add ms.repair_latency (tnow -. st.r_started)
      | None -> ()
    end;
    if deadline > st.r_deadline then st.r_deadline <- deadline;
    schedule_repair_check t st
  end

and schedule_repair_check t st =
  if not st.r_scheduled then begin
    st.r_scheduled <- true;
    ignore
      (Engine.schedule ~label:"repair.check" t.engine
         ~at:(Time.of_seconds st.r_deadline) (fun _ -> repair_check t st))
  end

and repair_check t st =
  st.r_scheduled <- false;
  let tnow = Time.to_seconds (now t) in
  if st.r_deadline > tnow +. 1e-9 then
    (* The deadline moved while this check was queued. *)
    schedule_repair_check t st
  else begin
    let packed = Node_key.pack st.r_node st.r_key in
    let drop () = Node_key.Index.remove t.repair packed in
    if not (Net.is_alive t.net st.r_node) then drop ()
    else begin
      let needs =
        Node_store.pending_first t.store st.r_node st.r_key
        || Node_store.interested_neighbors t.store st.r_node st.r_key <> []
      in
      if not needs then
        (* No waiters and no downstream interest: a stale leaf cache
           simply degrades to expiration-based caching. *)
        drop ()
      else if tnow >= Scenario.sim_end t.cfg then
        (* Past the workload horizon nothing new will flow; without
           this gate a re-issued interest and its answering update
           would keep re-arming each other and the run would never
           drain its event queue. *)
        drop ()
      else if st.r_attempts >= max_repair_attempts then begin
        Counters.record_unreachable t.counters;
        drop ()
      end
      else begin
        st.r_attempts <- st.r_attempts + 1;
        if st.r_attempts = 1 then st.r_started <- tnow;
        match Net.next_hop t.net st.r_node st.r_key with
        | Route.Owner ->
            (* Became the authority itself; nothing to re-subscribe
               to. *)
            drop ()
        | Route.Stuck _ ->
            Counters.record_unreachable t.counters;
            drop ()
        | Route.Forward h ->
            Counters.record_retry t.counters;
            (* A repair attempt is a root cause of its own: the
               re-issued interest and whatever flows back form a fresh
               trace rooted at this event. *)
            let rid = new_span t in
            if tracing t then
              emit t
                (Trace.Repair_query
                   {
                     at = now t;
                     node = st.r_node;
                     key = st.r_key;
                     attempt = st.r_attempts;
                     trace_id = rid;
                     span_id = rid;
                     parent_id = 0;
                   });
            st.r_deadline <-
              tnow
              +. (t.repair_timeout
                 *. Float.of_int (1 lsl Stdlib.min st.r_attempts 5));
            let ctx =
              if rid = 0 then no_ctx
              else { sc_trace = rid; sc_parent = rid; sc_root_at = tnow }
            in
            (* Raw re-issue on the wire: bypasses the node's own query
               coalescing, which would swallow the retry while the
               pending-first flag is still set. *)
            send_query t ~ctx ~from:st.r_node ~attempt:0 ~key:st.r_key
              (Node_store.Send_query { to_ = h; key = st.r_key });
            schedule_repair_check t st
      end
    end
  end

(* Token-bucket drain: one update leaves the node per 1/rate seconds,
   taken from the longest per-neighbor queue (the paper's
   proportional-share allocation keeps queues equal; always serving
   the longest is its work-conserving equivalent). *)
and schedule_drain t node_id ch =
  if not ch.drain_scheduled then begin
    let rate =
      match t.cfg.capacity_mode with
      | Scenario.Token_bucket full_rate -> capacity_of t node_id *. full_rate
      | Scenario.Bernoulli -> 0.
    in
    if rate > 0. then begin
      ch.drain_scheduled <- true;
      if ch.drain_cb == no_drain then
        ch.drain_cb <-
          (fun _ ->
            ch.drain_scheduled <- false;
            drain_once t node_id ch);
      let at =
        Time.max (now t) (Time.of_seconds (ch.last_send +. (1. /. rate)))
      in
      ignore (Engine.schedule ~label:"channel.drain" t.engine ~at ch.drain_cb)
    end
  end

and drain_once t node_id ch =
  let longest =
    Node_id.Table.fold
      (fun neighbor queue acc ->
        let len = Update_queue.length queue in
        if len = 0 then acc
        else
          match acc with
          | Some (_, _, best_len) when best_len >= len -> acc
          | Some _ | None -> Some (neighbor, queue, len))
      ch.queues None
  in
  match longest with
  | None -> ()
  | Some (neighbor, queue, _) ->
      (match Update_queue.pop_tagged queue ~now:(now t) with
      | Some (update, tag) ->
          ch.last_send <- Time.to_seconds (now t);
          let ctx =
            match tag with
            | Some (sc_trace, sc_parent, sc_root_at) ->
                { sc_trace; sc_parent; sc_root_at }
            | None -> no_ctx
          in
          wire t ~ctx ~from:node_id ~attempt:0
            (Node_store.Send_update
               { to_ = neighbor; update; answering = false })
      | None -> ());
      if channel_depth ch > 0 then schedule_drain t node_id ch

(* {2 Local queries} *)

let post_query t ~node ~key =
  if Net.is_alive t.net node then begin
    (* A locally posted query roots a new trace; everything it causes
       descends from this span. *)
    let rid = new_span t in
    if tracing t then
      emit t
        (Trace.Query_posted
           {
             at = now t;
             node;
             key;
             trace_id = rid;
             span_id = rid;
             parent_id = 0;
           });
    let ctx =
      if rid = 0 then no_ctx
      else
        {
          sc_trace = rid;
          sc_parent = rid;
          sc_root_at = Time.to_seconds (now t);
        }
    in
    judge_pending_updates t ~node ~key;
    t.queries_posted <- t.queries_posted + 1;
    (match t.attribution with
    | Some a ->
        Attribution.record_query a ~key:(Key.to_int key)
          ~node:(Node_id.to_int node)
          ~now:(Time.to_seconds (now t))
    | None -> ());
    perform t ~ctx ~from:node
      (Node_store.handle_query t.store ~node ~now:(now t)
         ~owner:(Net.owns t.net node key) ~route:t.route
         (Node_store.From_local (now t)) key)
  end

(* {2 Workload pumps}

   Generators are pulled one event at a time: the handler for each
   event schedules the next, keeping the event heap small. *)

let pump_queries t gen =
  let module Q = Cup_workload.Query_gen in
  (* One callback per generator: it posts the arrival the cursor is on,
     then schedules itself at the next one. *)
  let rec arrive _ =
    post_query t
      ~node:(Node_id.of_int (Q.node_index gen))
      ~key:t.keys.(Q.key_index gen);
    schedule ()
  and schedule () =
    if Q.next gen then
      ignore (Engine.schedule ~label:"pump.query" t.engine ~at:(Q.at gen) arrive)
  in
  schedule ()

(* An origin-server replica event roots a new trace.  No event is
   emitted for the root itself, so its children carry [parent_id = 0]:
   the first delivery hops are the roots of the trace's forest. *)
let origin_ctx t =
  let rid = new_span t in
  if rid = 0 then no_ctx
  else
    {
      sc_trace = rid;
      sc_parent = 0;
      sc_root_at = Time.to_seconds (Engine.now t.engine);
    }

let dispatch_replica_event t (e : Cup_workload.Replica_gen.event) =
  t.replica_events <- t.replica_events + 1;
  let key = t.keys.(e.key_index) in
  let auth = Key.Table.find t.authority key in
  if Net.is_alive t.net auth then begin
    let replica = Replica_id.of_int e.replica in
    match e.kind with
    | Cup_workload.Replica_gen.Birth ->
        let entry = Entry.make ~replica ~expiry:(Time.add e.at e.lifetime) in
        perform t ~ctx:(origin_ctx t) ~from:auth
          (Node_store.replica_birth t.store ~node:auth ~now:(now t) ~key entry)
    | Cup_workload.Replica_gen.Death ->
        perform t ~ctx:(origin_ctx t) ~from:auth
          (Node_store.replica_death t.store ~node:auth ~now:(now t) ~key
             replica)
    | Cup_workload.Replica_gen.Refresh ->
        let entry = Entry.make ~replica ~expiry:(Time.add e.at e.lifetime) in
        if t.cfg.refresh_batch_window > 0. then begin
          (* Section 3.6 aggregation: buffer this key's refreshes and
             flush them as one batched update when the window closes. *)
          match Key.Table.find_opt t.batches key with
          | Some buffer -> buffer := entry :: !buffer
          | None ->
              let buffer = ref [ entry ] in
              Key.Table.replace t.batches key buffer;
              ignore
                (Engine.schedule_after ~label:"refresh.batch" t.engine
                   ~delay:t.cfg.refresh_batch_window (fun _ ->
                     Key.Table.remove t.batches key;
                     let auth = Key.Table.find t.authority key in
                     if Net.is_alive t.net auth then
                       (* The batched flush is the root cause: it is
                          what actually enters the tree. *)
                       perform t ~ctx:(origin_ctx t) ~from:auth
                         (Node_store.replica_refresh_batch t.store ~node:auth
                            ~now:(now t) ~key !buffer)))
        end
        else begin
          let actions =
            Node_store.replica_refresh t.store ~node:auth ~now:(now t) ~key
              entry
          in
          if
            t.cfg.refresh_sample >= 1.
            || Dist.bernoulli t.sample_rng ~p:t.cfg.refresh_sample
          then perform t ~ctx:(origin_ctx t) ~from:auth actions
          else begin
            (* Section 3.6 suppression: the directory was updated by
               [replica_refresh]; drop the propagation. *)
            let ctx = origin_ctx t in
            List.iter
              (function
                | Node_store.Send_update _ ->
                    Counters.record_dropped_update t.counters
                | other -> perform_one t ~ctx ~from:auth other)
              actions
          end
        end
  end

let pump_replicas t gen =
  let rec next () =
    match Cup_workload.Replica_gen.next gen with
    | None -> ()
    | Some e ->
        ignore
          (Engine.schedule ~label:"pump.replica" t.engine ~at:e.at (fun _ ->
               dispatch_replica_event t e;
               next ()))
  in
  next ()

let set_capacity t id c =
  Log.debug (fun m ->
      m "t=%a: node %a capacity -> %.2f" Time.pp (now t) Node_id.pp id c);
  Node_id.Table.replace t.capacity id c;
  match t.cfg.capacity_mode with
  | Scenario.Token_bucket _ when c > 0. -> (
      match Node_id.Table.find_opt t.channels id with
      | Some ch -> schedule_drain t id ch
      | None -> ())
  | Scenario.Token_bucket _ | Scenario.Bernoulli -> ()

let pump_faults t gen =
  let rec next () =
    match Cup_workload.Fault_gen.next gen with
    | None -> ()
    | Some e ->
        ignore
          (Engine.schedule ~label:"pump.fault" t.engine ~at:e.at (fun _ ->
               List.iter
                 (fun { Cup_workload.Fault_gen.node_index; capacity } ->
                   set_capacity t (Node_id.of_int node_index) capacity)
                 e.changes;
               next ()))
  in
  next ()

(* {2 Construction} *)

let create_base cfg =
  (match Scenario.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runner: invalid scenario: " ^ msg));
  let root = Rng.create ~seed:cfg.Scenario.seed in
  let topo_rng = Rng.substream root "topology" in
  let net = Net.create ~rng:topo_rng ~kind:cfg.overlay ~n:cfg.nodes () in
  let counters = Counters.create () in
  (* A query its receiver cannot route toward the key's authority dies
     there and is counted, instead of escaping the engine. *)
  let route node key =
    match Net.next_hop net node key with
    | Route.Forward _ as hop -> hop
    | (Route.Owner | Route.Stuck _) as hop ->
        Counters.record_unreachable counters;
        hop
  in
  let store = Node_store.create ~nodes:cfg.nodes cfg.node_config in
  let keys = Array.init (Scenario.total_keys cfg) Key.of_int in
  let authority = Key.Table.create (Array.length keys) in
  Array.iter
    (fun key ->
      let owner = Net.owner_of_key net key in
      Key.Table.replace authority key owner;
      Node_store.add_local_key store owner key)
    keys;
  let t =
    {
      cfg;
      engine = Engine.create ();
      net;
      route;
      store;
      keys;
      authority;
      counters;
      capacity = Node_id.Table.create 16;
      channels = Node_id.Table.create 16;
      topo_rng;
      cap_rng = Rng.substream root "capacity";
      sample_rng = Rng.substream root "refresh-sample";
      crash_rng = Rng.substream root "crashes";
      loss_rng = Rng.substream root "loss";
      loss_salt = Splitmix.mix (Int64.of_int cfg.seed);
      reorder_rng = Rng.substream root "reorder";
      dup_rng = Rng.substream root "duplicate";
      (* Distinct from [loss_salt] so channel drop rates and island
         membership are uncorrelated hashes of the same seed. *)
      partition_salt = Splitmix.mix (Int64.lognot (Int64.of_int cfg.seed));
      fault_mode = Scenario.fault_injection cfg;
      repair = Node_key.Index.create ~absent:no_repair 256;
      repair_timeout =
        Float.max 1.0 (64. *. cfg.hop_delay) +. cfg.refresh_batch_window;
      repair_slack =
        Float.max 1.0 (64. *. cfg.hop_delay) +. cfg.refresh_batch_window;
      batches = Key.Table.create 16;
      justif = Node_key.Index.create ~absent:[] 1024;
      justif_backlog = 0;
      inv_hop_delay =
        (if cfg.hop_delay > 0. then 1. /. cfg.hop_delay else 0.);
      tracked_updates = 0;
      justified_updates = 0;
      queries_posted = 0;
      replica_events = 0;
      tracer = None;
      metrics = None;
      attribution = None;
      next_span = 0;
      started = Unix.gettimeofday ();
      setup_seconds = 0.;
    }
  in
  let stop = Time.of_seconds (Scenario.sim_end cfg) in
  pump_replicas t
    (Cup_workload.Replica_gen.create
       ~rng:(Rng.substream root "replicas")
       ~keys:(Array.length keys) ~replicas_per_key:cfg.replicas_per_key
       ~lifetime:cfg.replica_lifetime ~stop ~death_prob:cfg.death_prob ());
  let key_dist =
    match cfg.key_dist with
    | `Uniform -> Cup_workload.Query_gen.Uniform (Array.length keys)
    | `Zipf s -> Cup_workload.Query_gen.Zipf (Array.length keys, s)
  in
  pump_queries t
    (Cup_workload.Query_gen.create
       ~rng:(Rng.substream root "queries")
       ~rate:cfg.query_rate
       ~start:(Time.of_seconds cfg.query_start)
       ~stop:(Time.of_seconds (cfg.query_start +. cfg.query_duration))
       ~nodes:cfg.nodes ~key_dist);
  (match cfg.faults with
  | None -> ()
  | Some (Scenario.Up_and_down { fraction; reduced; warmup; down; gap }) ->
      pump_faults t
        (Cup_workload.Fault_gen.up_and_down
           ~rng:(Rng.substream root "faults")
           ~nodes:cfg.nodes ~fraction ~reduced
           ~warmup:(cfg.query_start +. warmup)
           ~down ~gap
           ~stop:(Time.of_seconds (cfg.query_start +. cfg.query_duration)))
  | Some (Scenario.Once_down { fraction; reduced; warmup }) ->
      pump_faults t
        (Cup_workload.Fault_gen.once_down
           ~rng:(Rng.substream root "faults")
           ~nodes:cfg.nodes ~fraction ~reduced
           ~warmup:(cfg.query_start +. warmup)));
  t

(* Snapshot the run's counters into the attached registry so a
   [--metrics-out] dump carries the whole-run totals next to the
   latency histograms recorded live.  Standalone over (counters,
   registry) so a live HTTP scrape ({!Cup_obs.Serve}) can inject a
   mid-run snapshot into a registry copy using the same code path —
   keeping the scrape byte-identical to the file written at finish. *)
let export_counters c reg =
  let add_counter ?labels name help v =
    Registry.inc ~by:v (Registry.counter reg ~help ?labels name)
  in
  let hop_help = "Overlay hops by message class" in
  add_counter "cup_hops_total" hop_help (Counters.query_hops c)
    ~labels:[ ("class", "query") ];
  add_counter "cup_hops_total" hop_help
    (Counters.first_time_answer_hops c)
    ~labels:[ ("class", "first_time_answer") ];
  add_counter "cup_hops_total" hop_help
    (Counters.first_time_proactive_hops c)
    ~labels:[ ("class", "first_time_proactive") ];
  add_counter "cup_hops_total" hop_help (Counters.refresh_hops c)
    ~labels:[ ("class", "refresh") ];
  add_counter "cup_hops_total" hop_help (Counters.delete_hops c)
    ~labels:[ ("class", "delete") ];
  add_counter "cup_hops_total" hop_help (Counters.append_hops c)
    ~labels:[ ("class", "append") ];
  add_counter "cup_hops_total" hop_help (Counters.clear_bit_hops c)
    ~labels:[ ("class", "clear_bit") ];
  let query_help = "Locally posted queries by outcome" in
  add_counter "cup_queries_total" query_help (Counters.hits c)
    ~labels:[ ("result", "hit") ];
  add_counter "cup_queries_total" query_help (Counters.misses c)
    ~labels:[ ("result", "miss") ];
  add_counter "cup_dropped_updates_total"
    "Updates suppressed by reduced outgoing capacity"
    (Counters.dropped_updates c);
  let fault_help = "Fault-path incidents by kind" in
  add_counter "cup_faults_total" fault_help (Counters.lost_messages c)
    ~labels:[ ("kind", "lost_message") ];
  add_counter "cup_faults_total" fault_help (Counters.retries c)
    ~labels:[ ("kind", "retry") ];
  add_counter "cup_faults_total" fault_help (Counters.repairs c)
    ~labels:[ ("kind", "repair") ];
  add_counter "cup_faults_total" fault_help (Counters.unreachable c)
    ~labels:[ ("kind", "unreachable") ];
  let transport_help = "Transport-level messages by conservation state" in
  add_counter "cup_transport_messages_total" transport_help (Counters.sent c)
    ~labels:[ ("state", "sent") ];
  add_counter "cup_transport_messages_total" transport_help
    (Counters.delivered c)
    ~labels:[ ("state", "delivered") ];
  add_counter "cup_transport_messages_total" transport_help
    (Counters.transport_lost c)
    ~labels:[ ("state", "lost") ]

let finish t =
  Engine.run t.engine;
  let hits, misses = Net.route_cache_stats t.net in
  Counters.set_route_cache_stats t.counters ~hits ~misses;
  (match t.metrics with
  | Some ms -> export_counters t.counters ms.registry
  | None -> ());
  let engine_events = Engine.events_executed t.engine in
  let wallclock = Unix.gettimeofday () -. t.started in
  {
    counters = t.counters;
    node_stats =
      (* The store sums the stats as it runs; the result keeps a copy. *)
      (let s = Node_store.stats t.store in
       { s with queries_in = s.queries_in });
    queries_posted = t.queries_posted;
    replica_events = t.replica_events;
    engine_events;
    wallclock;
    setup_seconds = t.setup_seconds;
    events_per_sec =
      (if wallclock > 0. then float_of_int engine_events /. wallclock else 0.);
    tracked_updates = t.tracked_updates;
    justified_updates = t.justified_updates;
    profile = Engine.profile t.engine;
  }

(* {2 Churn (Section 2.9)} *)

(* Re-point every key whose routing owner no longer matches the
   recorded authority, handing the directory over (or dropping it when
   the old authority crashed).  Per-key, because a membership change
   can move different keys to different nodes (e.g. a Pastry join
   takes keys from both ring sides). *)
let reassign_authorities ?(handover = true) t =
  Key.Table.iter
    (fun key auth ->
      let owner = Net.owner_of_key t.net key in
      if not (Node_id.equal owner auth) then begin
        let entries = Node_store.handover_local t.store auth key in
        if handover then Node_store.receive_local t.store owner key entries
        else Node_store.add_local_key t.store owner key;
        Key.Table.replace t.authority key owner
      end)
    t.authority

let patch_affected t affected =
  List.iter
    (fun id ->
      if Net.is_alive t.net id then
        Node_store.retain_neighbors t.store ~node:id (Net.neighbors t.net id))
    affected

let node_join t =
  let change = Net.join_random t.net ~rng:t.topo_rng in
  Log.info (fun m ->
      m "t=%a: node %a joined (split %a, %d nodes patched)" Time.pp (now t)
        Node_id.pp change.subject
        (Format.pp_print_option Node_id.pp)
        change.peer
        (List.length change.affected));
  reassign_authorities t;
  patch_affected t (change.subject :: change.affected);
  change.subject

let node_leave ?(graceful = true) t id =
  let change = Net.leave t.net id in
  Log.info (fun m ->
      m "t=%a: node %a left %s (taker %a, %d nodes patched)" Time.pp (now t)
        Node_id.pp id
        (if graceful then "gracefully" else "by crashing")
        (Format.pp_print_option Node_id.pp)
        change.peer
        (List.length change.affected));
  (* The departed node will never judge its pending justification
     deadlines — node ids are not reused, so no query can ever arrive
     there again — and nothing else sweeps them: left in place they
     would sit in the table (and the V3 backlog probe) for the rest of
     the run. *)
  Node_key.Index.filter_inplace
    (fun packed deadlines ->
      if Node_id.equal (Node_key.node packed) id then begin
        t.justif_backlog <- t.justif_backlog - List.length deadlines;
        false
      end
      else true)
    t.justif;
  (* Graceful departure hands directories over; a crash loses them and
     the replicas' keep-alives rebuild the index at the new owner. *)
  reassign_authorities ~handover:graceful t;
  (match change.peer with
  | Some taker ->
      (* Bits that pointed at the departed node now point at the node
         that took over its zone (Section 2.9). *)
      List.iter
        (fun a ->
          if Net.is_alive t.net a then
            Node_store.remap_neighbor t.store ~node:a ~old_id:id
              ~new_id:taker)
        change.affected
  | None -> ());
  patch_affected t change.affected;
  (* Its protocol state goes last, once the handover above has read its
     directories.  Every handler call sits behind [Net.is_alive], so
     nothing reads that state again. *)
  Node_store.remove_node t.store id

(* {2 Crash / recovery injection}

   A crash is [node_leave ~graceful:false] plus losing the victim's
   queued outgoing updates and capacity state; a recovery is a fresh
   replacement join.  The victim is drawn from the dedicated "crashes"
   substream in event order, so the crash schedule is byte-identical
   across job counts and cache settings. *)

let crash_random_node t =
  match Net.node_ids t.net with
  | [] | [ _ ] -> () (* never crash the last node *)
  | ids ->
      let victim = List.nth ids (Rng.int t.crash_rng (List.length ids)) in
      if tracing t then
        emit t (Trace.Node_crashed { at = now t; node = victim });
      (* Everything queued at the victim dies with it. *)
      (match Node_id.Table.find_opt t.channels victim with
      | Some ch ->
          Node_id.Table.reset ch.queues;
          Node_id.Table.remove t.channels victim
      | None -> ());
      Node_id.Table.remove t.capacity victim;
      node_leave ~graceful:false t victim

let recover_node t =
  let id = node_join t in
  if tracing t then emit t (Trace.Node_recovered { at = now t; node = id })

let pump_crashes t gen =
  let rec next () =
    match Cup_workload.Crash_gen.next gen with
    | None -> ()
    | Some e ->
        ignore
          (Engine.schedule ~label:"pump.crash" t.engine ~at:e.at (fun _ ->
               (match e.kind with
               | Cup_workload.Crash_gen.Crash -> crash_random_node t
               | Cup_workload.Crash_gen.Recover -> recover_node t);
               next ()))
  in
  next ()

let create cfg =
  let t0 = Unix.gettimeofday () in
  let t = create_base cfg in
  (match cfg.Scenario.crashes with
  | None -> ()
  | Some { Scenario.crash_rate; recover_after; warmup } ->
      pump_crashes t
        (Cup_workload.Crash_gen.create ~rng:t.crash_rng ~crash_rate
           ~recover_after
           ~start:(Time.of_seconds (cfg.query_start +. warmup))
           ~stop:(Time.of_seconds (cfg.query_start +. cfg.query_duration))));
  t.setup_seconds <- Unix.gettimeofday () -. t0;
  t

let run cfg = finish (create cfg)

type queue_stats = {
  pending_events : int;
  queued_updates : int;
  max_queue_depth : int;
}

module Live = struct
  type t = live

  let create = create
  let engine t = t.engine
  let scenario t = t.cfg
  let network t = t.net

  (* The one shared depth accessor: /health, Timeseries and the
     queue-depth report all read the same fold instead of each
     re-deriving it from the engine and channel tables. *)
  let queue_stats t =
    let queued, deepest =
      Node_id.Table.fold
        (fun _ ch (total, deepest) ->
          let depth = channel_depth ch in
          (total + depth, Stdlib.max deepest depth))
        t.channels (0, 0)
    in
    {
      pending_events = Engine.pending t.engine;
      queued_updates = queued;
      max_queue_depth = deepest;
    }

  let wallclock_elapsed t = Unix.gettimeofday () -. t.started
  let queries_posted t = t.queries_posted

  let store t = t.store
  let counters t = t.counters
  let key_of_index t i = t.keys.(i)
  let authority_of t key = Key.Table.find t.authority key
  let post_query t ~node ~key = post_query t ~node ~key
  let set_capacity t id c = set_capacity t id c

  let run_until t at =
    Engine.run ~until:(Time.of_seconds at) t.engine

  let finish = finish
  let node_join = node_join
  let node_leave ?graceful t id = node_leave ?graceful t id
  let set_tracer t tracer = t.tracer <- tracer

  let set_metrics t = function
    | None -> t.metrics <- None
    | Some registry ->
        t.metrics <-
          Some
            {
              registry;
              query_latency =
                Registry.histogram registry
                  ~help:
                    "Per-miss query latency in overlay hops, posting to \
                     local answer"
                  "cup_query_latency_hops";
              repair_latency =
                Registry.histogram registry
                  ~help:
                    "Seconds from a first re-issued interest to the update \
                     flow resuming"
                  ~min_value:1e-3 "cup_repair_seconds";
              level_latency = Array.make 8 None;
            }

  let metrics t =
    match t.metrics with Some ms -> Some ms.registry | None -> None

  let set_attribution t a = t.attribution <- a
  let attribution t = t.attribution

  let justification_backlog t = t.justif_backlog

  let check_invariants t =
    let counted, departed =
      Node_key.Index.fold
        (fun packed deadlines (counted, departed) ->
          ( counted + List.length deadlines,
            if Net.is_alive t.net (Node_key.node packed) then departed
            else departed + 1 ))
        t.justif (0, 0)
    in
    if counted <> t.justif_backlog then
      Error
        (Printf.sprintf "justification backlog %d, but the table holds %d"
           t.justif_backlog counted)
    else if departed > 0 then
      Error
        (Printf.sprintf "%d departed (node, key) pairs still hold a \
                         justification entry"
           departed)
    else
      match
        List.find_opt
          (fun id -> not (Net.is_alive t.net id))
          (Node_store.nodes t.store)
      with
      | Some id ->
          Error
            (Format.asprintf "departed node %a still holds protocol state"
               Node_id.pp id)
      | None -> Ok ()
end
