module Trace = Cup_sim.Trace
module Time = Cup_dess.Time
module Node_id = Cup_overlay.Node_id
module Key = Cup_overlay.Key
module Counters = Cup_metrics.Counters
module Update = Cup_proto.Update
module Int_map = Map.Make (Int)

type violation = {
  code : string;
  invariant : string;
  at : float;
  detail : string;
}

exception Violation of violation

let pp_violation fmt v =
  Format.fprintf fmt "[%s %s] t=%.6g: %s" v.code v.invariant v.at v.detail

type t = {
  counters : Counters.t;
  backlog : (unit -> int) option;
  max_backlog : int option;
  check_every : int;
  tolerate_stale : bool;
  context : string option;
  (* node -> key -> replica -> expiry high-water of entries already
     delivered there, mirroring the receiving cache's overwrite
     semantics (Delete/First_time/crash reset it) *)
  fresh : (int, (int, float Int_map.t) Hashtbl.t) Hashtbl.t;
  seen_spans : (int, unit) Hashtbl.t;
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
    fresh = Hashtbl.create 256;
    seen_spans = Hashtbl.create 4096;
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

let check_span t ~at event =
  match Trace.event_span event with
  | None -> ()
  | Some (_, span_id, parent_id) ->
      if parent_id <> 0 && not (Hashtbl.mem t.seen_spans parent_id) then
        fail t ~code:"V4" ~invariant:"spans" ~at
          (Printf.sprintf "parent span %d not seen before its child %d"
             parent_id span_id);
      if span_id <> 0 then
        if Hashtbl.mem t.seen_spans span_id then
          fail t ~code:"V4" ~invariant:"spans" ~at
            (Printf.sprintf "span id %d emitted twice" span_id)
        else Hashtbl.replace t.seen_spans span_id ()

(* V2: mirror of [Node.apply_update] — [Refresh]/[Append] overwrite
   cache entries unconditionally, so an entry staler than one already
   delivered would regress the receiver's cache.  Entries expired on
   arrival are exempt: the receiver prunes them. *)
let check_freshness t ~at ~to_ ~key ~kind entries =
  let node = Node_id.to_int to_ and k = Key.to_int key in
  let keys =
    match Hashtbl.find_opt t.fresh node with
    | Some keys -> keys
    | None ->
        let keys = Hashtbl.create 16 in
        Hashtbl.replace t.fresh node keys;
        keys
  in
  let seen = Option.value (Hashtbl.find_opt keys k) ~default:Int_map.empty in
  let seen =
    match kind with
    | Update.Delete ->
        List.fold_left (fun m (r, _) -> Int_map.remove r m) seen entries
    | Update.First_time ->
        (* the receiver replaces its entry list for the key wholesale *)
        List.fold_left
          (fun m (r, expiry) ->
            if expiry >= at then Int_map.add r expiry m else m)
          Int_map.empty entries
    | Update.Refresh | Update.Append ->
        List.fold_left
          (fun m (r, expiry) ->
            if expiry < at then m
            else
              match Int_map.find_opt r m with
              | Some prev when prev >= expiry ->
                  (* Under reordering/duplication a stale arrival is a
                     channel artifact the receiver's last-writer-wins
                     guard discards, not a protocol bug; [tolerate_stale]
                     mirrors that guard (the high-water never moves down
                     either way). *)
                  if expiry < prev -. 1e-9 && not t.tolerate_stale then
                    fail t ~code:"V2" ~invariant:"freshness" ~at
                      (Printf.sprintf
                         "node %d key %d replica %d: delivered expiry %.6g \
                          regresses the %.6g already delivered"
                         node k r expiry prev);
                  m
              | _ -> Int_map.add r expiry m)
          seen entries
  in
  Hashtbl.replace keys k seen

let observe t event =
  t.events_checked <- t.events_checked + 1;
  let at = Time.to_seconds (Trace.event_time event) in
  t.last_at <- at;
  check_span t ~at event;
  (match event with
  | Trace.Update_delivered { to_; key; kind; entries; _ } ->
      check_freshness t ~at ~to_ ~key ~kind entries
  | Trace.Node_crashed { node; _ } ->
      Hashtbl.remove t.fresh (Node_id.to_int node)
  | _ -> ());
  check_conservation t ~at ~final:false;
  if t.events_checked mod t.check_every = 0 then check_backlog t ~at

let sink t = Sink.of_callback (observe t)

let finish t =
  let at = t.last_at in
  check_conservation t ~at ~final:true;
  check_backlog t ~at
