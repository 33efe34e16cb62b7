module Trace = Cup_sim.Trace
module Time = Cup_dess.Time
module Node_id = Cup_overlay.Node_id
module Key = Cup_overlay.Key
module Counters = Cup_metrics.Counters
module Update = Cup_proto.Update
module Node_key = Cup_overlay.Node_key

type violation = {
  code : string;
  invariant : string;
  at : float;
  detail : string;
}

exception Violation of violation

let pp_violation fmt v =
  Format.fprintf fmt "[%s %s] t=%.6g: %s" v.code v.invariant v.at v.detail

(* The expiry high-water of each replica delivered to one (node, key)
   pair.  [gen] is the receiving node's crash generation when the cell
   was written; a cell from an older generation reads as empty, which
   is how a crash resets every key of the node at once. *)
type cell = {
  mutable gen : int;
  mutable n : int;
  mutable replica : int array;
  mutable expiry : float array;
}

(* Stands for an absent cell in [fresh]; never written. *)
let no_cell = { gen = -1; n = 0; replica = [||]; expiry = [||] }

type t = {
  counters : Counters.t;
  backlog : (unit -> int) option;
  max_backlog : int option;
  check_every : int;
  tolerate_stale : bool;
  context : string option;
  (* V2 state, mirroring the receiving cache's overwrite semantics
     (Delete/First_time/crash reset it) *)
  fresh : cell Node_key.Index.t;
  mutable crashes : int array; (* node id -> crash generation *)
  spans : Span_index.t; (* span ids seen so far *)
  mutable events_checked : int;
  mutable last_at : float;
}

let create ?max_backlog ?backlog ?(check_every = 1024)
    ?(tolerate_stale = false) ?context ~counters () =
  if check_every <= 0 then
    invalid_arg "Audit.create: check_every must be > 0";
  Counters.expose_transport counters;
  {
    counters;
    backlog;
    max_backlog;
    check_every;
    tolerate_stale;
    context;
    fresh = Node_key.Index.create ~absent:no_cell 1024;
    crashes = [||];
    spans = Span_index.create ~fields:0;
    events_checked = 0;
    last_at = 0.;
  }

let events_checked t = t.events_checked

let violate ~code ~invariant ~at detail =
  raise (Violation { code; invariant; at; detail })

(* Violations escape as exceptions, far from whoever configured the
   run — [context] (a repro command, a seed) rides along in the detail
   so the report alone is enough to replay the failure. *)
let fail t ~code ~invariant ~at detail =
  let detail =
    match t.context with None -> detail | Some c -> detail ^ " | " ^ c
  in
  violate ~code ~invariant ~at detail

(* V1: the identity must hold at every instant — each transport
   recorder moves a message between exactly two terms — so any drift
   means a delivery path bypassed the accounting. *)
let check_conservation t ~at ~final =
  let c = t.counters in
  let sent = Counters.sent c
  and delivered = Counters.delivered c
  and lost = Counters.transport_lost c
  and in_flight = Counters.in_flight c in
  if in_flight < 0 then
    fail t ~code:"V1" ~invariant:"conservation" ~at
      (Printf.sprintf "in_flight is negative (%d)" in_flight);
  if sent <> delivered + lost + in_flight then
    fail t ~code:"V1" ~invariant:"conservation" ~at
      (Printf.sprintf "%d sent <> %d delivered + %d lost + %d in flight" sent
         delivered lost in_flight);
  if final && in_flight <> 0 then
    fail t ~code:"V1" ~invariant:"conservation" ~at
      (Printf.sprintf
         "%d messages still in flight after the engine drained" in_flight)

let check_backlog t ~at =
  match (t.backlog, t.max_backlog) with
  | Some probe, Some bound ->
      let backlog = probe () in
      if backlog > bound then
        fail t ~code:"V3" ~invariant:"backlog" ~at
          (Printf.sprintf "justification backlog %d exceeds bound %d" backlog
             bound)
  | _ -> ()

let check_span t ~at ~span_id ~parent_id =
  if parent_id <> 0 && Span_index.find t.spans parent_id < 0 then
    fail t ~code:"V4" ~invariant:"spans" ~at
      (Printf.sprintf "parent span %d not seen before its child %d" parent_id
         span_id);
  if span_id <> 0 then begin
    let seen = Span_index.length t.spans in
    ignore (Span_index.add t.spans span_id);
    if Span_index.length t.spans = seen then
      fail t ~code:"V4" ~invariant:"spans" ~at
        (Printf.sprintf "span id %d emitted twice" span_id)
  end

let generation t node =
  if node < Array.length t.crashes then t.crashes.(node) else 0

let crash t node =
  let n = Array.length t.crashes in
  if node >= n then begin
    let grown = Array.make (max (node + 1) (2 * n)) 0 in
    Array.blit t.crashes 0 grown 0 n;
    t.crashes <- grown
  end;
  t.crashes.(node) <- t.crashes.(node) + 1

(* The cell of (node, key), emptied if the node crashed since it was
   last written. *)
let cell t node key =
  let gen = generation t (Node_id.to_int node) in
  let packed = Node_key.pack node key in
  let c = Node_key.Index.find t.fresh packed in
  if c == no_cell then begin
    let c = { gen; n = 0; replica = [||]; expiry = [||] } in
    Node_key.Index.replace t.fresh packed c;
    c
  end
  else begin
    if c.gen <> gen then begin
      c.gen <- gen;
      c.n <- 0
    end;
    c
  end

(* Index of replica [r] in [c] at or after [i], or -1. *)
let rec index c r i =
  if i = c.n then -1 else if c.replica.(i) = r then i else index c r (i + 1)

let set c r expiry =
  match index c r 0 with
  | -1 ->
      if c.n = Array.length c.replica then begin
        let cap = max 2 (2 * c.n) in
        let replica = Array.make cap 0 and expiries = Array.make cap 0. in
        Array.blit c.replica 0 replica 0 c.n;
        Array.blit c.expiry 0 expiries 0 c.n;
        c.replica <- replica;
        c.expiry <- expiries
      end;
      c.replica.(c.n) <- r;
      c.expiry.(c.n) <- expiry;
      c.n <- c.n + 1
  | i -> c.expiry.(i) <- expiry

let remove c r =
  match index c r 0 with
  | -1 -> ()
  | i ->
      let last = c.n - 1 in
      c.replica.(i) <- c.replica.(last);
      c.expiry.(i) <- c.expiry.(last);
      c.n <- last

(* V2: mirror of [Node_store.apply_update] — [Refresh]/[Append] overwrite
   cache entries unconditionally, so an entry staler than one already
   delivered would regress the receiver's cache.  Entries expired on
   arrival are exempt: the receiver prunes them.  The loops over
   [entries] are top-level functions, so a delivery allocates
   nothing. *)
let rec delete c = function
  | [] -> ()
  | (r, _) :: rest ->
      remove c r;
      delete c rest

let rec first_time c ~at = function
  | [] -> ()
  | (r, expiry) :: rest ->
      if expiry >= at then set c r expiry;
      first_time c ~at rest

let rec refresh t c ~at ~to_ ~key = function
  | [] -> ()
  | (r, expiry) :: rest ->
      (if not (expiry < at) then
         match index c r 0 with
         | i when i >= 0 && c.expiry.(i) >= expiry ->
             (* Under reordering/duplication a stale arrival is a channel
                artifact the receiver's last-writer-wins guard discards,
                not a protocol bug; [tolerate_stale] mirrors that guard
                (the high-water never moves down either way). *)
             let prev = c.expiry.(i) in
             if expiry < prev -. 1e-9 && not t.tolerate_stale then
               fail t ~code:"V2" ~invariant:"freshness" ~at
                 (Printf.sprintf
                    "node %d key %d replica %d: delivered expiry %.6g \
                     regresses the %.6g already delivered"
                    (Node_id.to_int to_) (Key.to_int key) r expiry prev)
         | _ -> set c r expiry);
      refresh t c ~at ~to_ ~key rest

let check_freshness t ~at ~to_ ~key ~kind entries =
  let c = cell t to_ key in
  match kind with
  | Update.Delete -> delete c entries
  | Update.First_time ->
      (* the receiver replaces its entry list for the key wholesale *)
      c.n <- 0;
      first_time c ~at entries
  | Update.Refresh | Update.Append -> refresh t c ~at ~to_ ~key entries

let observe t event =
  t.events_checked <- t.events_checked + 1;
  (match event with
  | Trace.Update_delivered
      { at; to_; key; kind; entries; span_id; parent_id; _ } ->
      let at = Time.to_seconds at in
      t.last_at <- at;
      check_span t ~at ~span_id ~parent_id;
      check_freshness t ~at ~to_ ~key ~kind entries
  | Trace.Query_posted { at; span_id; parent_id; _ }
  | Trace.Query_forwarded { at; span_id; parent_id; _ }
  | Trace.Clear_bit_delivered { at; span_id; parent_id; _ }
  | Trace.Local_answer { at; span_id; parent_id; _ }
  | Trace.Message_lost { at; span_id; parent_id; _ }
  | Trace.Repair_query { at; span_id; parent_id; _ } ->
      let at = Time.to_seconds at in
      t.last_at <- at;
      check_span t ~at ~span_id ~parent_id
  | Trace.Node_crashed { at; node } ->
      t.last_at <- Time.to_seconds at;
      crash t (Node_id.to_int node)
  | Trace.Node_recovered { at; _ } -> t.last_at <- Time.to_seconds at);
  let at = t.last_at in
  check_conservation t ~at ~final:false;
  if t.events_checked mod t.check_every = 0 then check_backlog t ~at

let sink t = Sink.of_callback (observe t)

let finish t =
  let at = t.last_at in
  check_conservation t ~at ~final:true;
  check_backlog t ~at
