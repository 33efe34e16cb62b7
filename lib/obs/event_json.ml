module Trace = Cup_sim.Trace
module Time = Cup_dess.Time
module Node_id = Cup_overlay.Node_id
module Key = Cup_overlay.Key
module Update = Cup_proto.Update

let kind_of_string = function
  | "first-time" -> Some Update.First_time
  | "delete" -> Some Update.Delete
  | "refresh" -> Some Update.Refresh
  | "append" -> Some Update.Append
  | _ -> None

let to_json (e : Trace.event) : Json.t =
  let at t = ("at", Json.Float (Time.to_seconds t)) in
  let node name id = (name, Json.Int (Node_id.to_int id)) in
  let key k = ("key", Json.Int (Key.to_int k)) in
  let span ~trace_id ~span_id ~parent_id rest =
    ("trace", Json.Int trace_id)
    :: ("span", Json.Int span_id)
    :: ("parent", Json.Int parent_id)
    :: rest
  in
  match e with
  | Trace.Query_posted { at = t; node = n; key = k; trace_id; span_id; parent_id }
    ->
      Json.Obj
        (("type", Json.String "query_posted")
        :: at t :: node "node" n :: key k
        :: span ~trace_id ~span_id ~parent_id [])
  | Trace.Query_forwarded { at = t; from_; to_; key = k; trace_id; span_id; parent_id }
    ->
      Json.Obj
        (("type", Json.String "query_forwarded")
        :: at t :: node "from" from_ :: node "to" to_ :: key k
        :: span ~trace_id ~span_id ~parent_id [])
  | Trace.Update_delivered
      { at = t; from_; to_; key = k; kind; level; answering; entries;
        trace_id; span_id; parent_id } ->
      Json.Obj
        (("type", Json.String "update_delivered")
        :: at t :: node "from" from_ :: node "to" to_ :: key k
        :: ("kind", Json.String (Update.kind_to_string kind))
        :: ("level", Json.Int level)
        :: ("answering", Json.Bool answering)
        :: ( "entries",
             Json.List
               (List.map
                  (fun (replica, expiry) ->
                    Json.Obj
                      [
                        ("replica", Json.Int replica);
                        ("expiry", Json.Float expiry);
                      ])
                  entries) )
        :: span ~trace_id ~span_id ~parent_id [])
  | Trace.Clear_bit_delivered
      { at = t; from_; to_; key = k; trace_id; span_id; parent_id } ->
      Json.Obj
        (("type", Json.String "clear_bit_delivered")
        :: at t :: node "from" from_ :: node "to" to_ :: key k
        :: span ~trace_id ~span_id ~parent_id [])
  | Trace.Local_answer
      { at = t; node = n; key = k; hit; waiters; trace_id; span_id; parent_id }
    ->
      Json.Obj
        (("type", Json.String "local_answer")
        :: at t :: node "node" n :: key k
        :: ("hit", Json.Bool hit)
        :: ("waiters", Json.Int waiters)
        :: span ~trace_id ~span_id ~parent_id [])
  | Trace.Node_crashed { at = t; node = n } ->
      Json.Obj [ ("type", Json.String "node_crashed"); at t; node "node" n ]
  | Trace.Node_recovered { at = t; node = n } ->
      Json.Obj [ ("type", Json.String "node_recovered"); at t; node "node" n ]
  | Trace.Message_lost
      { at = t; from_; to_; key = k; trace_id; span_id; parent_id } ->
      Json.Obj
        (("type", Json.String "message_lost")
        :: at t :: node "from" from_ :: node "to" to_ :: key k
        :: span ~trace_id ~span_id ~parent_id [])
  | Trace.Repair_query
      { at = t; node = n; key = k; attempt; trace_id; span_id; parent_id } ->
      Json.Obj
        (("type", Json.String "repair_query")
        :: at t :: node "node" n :: key k
        :: ("attempt", Json.Int attempt)
        :: span ~trace_id ~span_id ~parent_id [])

let to_string e = Json.to_string (to_json e)

let of_json (j : Json.t) : (Trace.event, string) result =
  let ( let* ) = Result.bind in
  let field name decode =
    match Option.bind (Json.member name j) decode with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  let time name =
    let* f = field name Json.to_float in
    Ok (Time.of_seconds f)
  in
  let node name =
    let* i = field name Json.to_int in
    if i < 0 then Error (Printf.sprintf "negative node id in %S" name)
    else if i > Binary_codec.max_id then
      Error (Printf.sprintf "node id out of range in %S" name)
    else Ok (Node_id.of_int i)
  in
  let key () =
    let* i = field "key" Json.to_int in
    if i < 0 then Error "negative key"
    else if i > Binary_codec.max_id then Error "key out of range"
    else Ok (Key.of_int i)
  in
  (* Span ids were absent from traces written before the causal-span
     codec; default them to 0 so legacy JSONL keeps parsing. *)
  let span_field name =
    match Json.member name j with
    | None -> Ok 0
    | Some v -> (
        match Json.to_int v with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "ill-typed field %S" name))
  in
  let span () =
    let* trace_id = span_field "trace" in
    let* span_id = span_field "span" in
    let* parent_id = span_field "parent" in
    Ok (trace_id, span_id, parent_id)
  in
  let* typ = field "type" Json.to_str in
  match typ with
  | "query_posted" ->
      let* at = time "at" in
      let* n = node "node" in
      let* k = key () in
      let* trace_id, span_id, parent_id = span () in
      Ok (Trace.Query_posted { at; node = n; key = k; trace_id; span_id; parent_id })
  | "query_forwarded" ->
      let* at = time "at" in
      let* from_ = node "from" in
      let* to_ = node "to" in
      let* k = key () in
      let* trace_id, span_id, parent_id = span () in
      Ok (Trace.Query_forwarded { at; from_; to_; key = k; trace_id; span_id; parent_id })
  | "update_delivered" ->
      let* at = time "at" in
      let* from_ = node "from" in
      let* to_ = node "to" in
      let* k = key () in
      let* kind_s = field "kind" Json.to_str in
      let* kind =
        match kind_of_string kind_s with
        | Some kind -> Ok kind
        | None -> Error (Printf.sprintf "unknown update kind %S" kind_s)
      in
      let* level = field "level" Json.to_int in
      let* answering = field "answering" Json.to_bool in
      (* Payload entries were absent from traces written before the
         audit codec; default to [] so legacy JSONL keeps parsing. *)
      let* entries =
        match Json.member "entries" j with
        | None -> Ok []
        | Some (Json.List items) ->
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                match
                  ( Option.bind (Json.member "replica" item) Json.to_int,
                    Option.bind (Json.member "expiry" item) Json.to_float )
                with
                | Some r, Some e -> Ok ((r, e) :: acc)
                | _ -> Error "ill-typed update entry")
              (Ok []) items
            |> Result.map List.rev
        | Some _ -> Error "ill-typed field \"entries\""
      in
      let* trace_id, span_id, parent_id = span () in
      Ok
        (Trace.Update_delivered
           { at; from_; to_; key = k; kind; level; answering; entries;
             trace_id; span_id; parent_id })
  | "clear_bit_delivered" ->
      let* at = time "at" in
      let* from_ = node "from" in
      let* to_ = node "to" in
      let* k = key () in
      let* trace_id, span_id, parent_id = span () in
      Ok
        (Trace.Clear_bit_delivered
           { at; from_; to_; key = k; trace_id; span_id; parent_id })
  | "local_answer" ->
      let* at = time "at" in
      let* n = node "node" in
      let* k = key () in
      let* hit = field "hit" Json.to_bool in
      let* waiters = field "waiters" Json.to_int in
      let* trace_id, span_id, parent_id = span () in
      Ok
        (Trace.Local_answer
           { at; node = n; key = k; hit; waiters; trace_id; span_id; parent_id })
  | "node_crashed" ->
      let* at = time "at" in
      let* n = node "node" in
      Ok (Trace.Node_crashed { at; node = n })
  | "node_recovered" ->
      let* at = time "at" in
      let* n = node "node" in
      Ok (Trace.Node_recovered { at; node = n })
  | "message_lost" ->
      let* at = time "at" in
      let* from_ = node "from" in
      let* to_ = node "to" in
      let* k = key () in
      let* trace_id, span_id, parent_id = span () in
      Ok (Trace.Message_lost { at; from_; to_; key = k; trace_id; span_id; parent_id })
  | "repair_query" ->
      let* at = time "at" in
      let* n = node "node" in
      let* k = key () in
      let* attempt = field "attempt" Json.to_int in
      let* trace_id, span_id, parent_id = span () in
      Ok
        (Trace.Repair_query
           { at; node = n; key = k; attempt; trace_id; span_id; parent_id })
  | other -> Error (Printf.sprintf "unknown event type %S" other)

let of_string s =
  match Json.of_string s with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok j -> of_json j
