(* Reference for the auditor's V2 (freshness) and V4 (spans) checks,
   kept in plain nested structures: a polymorphic [Hashtbl] per node of
   key -> replica -> expiry [Int_map]s, where a crash drops the node's
   whole table, and a polymorphic [Hashtbl] as the set of span ids seen.
   It raises the same {!Cup_obs.Audit.Violation}s, so [test_obs] can
   ask both for the first violation of a random event script. *)

module Trace = Cup_sim.Trace
module Time = Cup_dess.Time
module Node_id = Cup_overlay.Node_id
module Key = Cup_overlay.Key
module Update = Cup_proto.Update
module Audit = Cup_obs.Audit
module Int_map = Map.Make (Int)

type t = {
  tolerate_stale : bool;
  context : string option;
  fresh : (int, (int, float Int_map.t) Hashtbl.t) Hashtbl.t;
  seen_spans : (int, unit) Hashtbl.t;
}

let create ?(tolerate_stale = false) ?context () =
  {
    tolerate_stale;
    context;
    fresh = Hashtbl.create 256;
    seen_spans = Hashtbl.create 4096;
  }

let fail t ~code ~invariant ~at detail =
  let detail =
    match t.context with None -> detail | Some c -> detail ^ " | " ^ c
  in
  raise (Audit.Violation { code; invariant; at; detail })

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
  let at = Time.to_seconds (Trace.event_time event) in
  check_span t ~at event;
  match event with
  | Trace.Update_delivered { to_; key; kind; entries; _ } ->
      check_freshness t ~at ~to_ ~key ~kind entries
  | Trace.Node_crashed { node; _ } ->
      Hashtbl.remove t.fresh (Node_id.to_int node)
  | _ -> ()
