(* Compact binary trace encoding.  See binary_codec.mli for the format
   specification; keep the two in sync. *)

module Trace = Cup_sim.Trace
module Scale = Cup_sim.Scale
module Time = Cup_dess.Time
module Node_id = Cup_overlay.Node_id
module Key = Cup_overlay.Key
module Update = Cup_proto.Update

let magic = "CUPTRACE"
let version = 1
let header = magic ^ String.make 1 (Char.chr version)
let header_length = String.length header

type record =
  | Event of Trace.event
  | Scale of Scale.trace_event
  | Line of string

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* {1 Primitive encoders}

   Ints are zigzag-mapped then LEB128-encoded; lengths and counts are
   plain LEB128 (always non-negative).  Because zigzag and LEB128 both
   operate on the 63-bit two's-complement pattern, every OCaml [int]
   round-trips exactly, including [min_int]/[max_int]. *)

let add_uvarint b n =
  let n = ref n in
  while !n land lnot 0x7f <> 0 do
    Buffer.add_char b (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char b (Char.unsafe_chr !n)

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor (-(z land 1))
let add_int b n = add_uvarint b (zigzag n)

(* Floats are the exact IEEE-754 bit pattern, little-endian: bit-exact
   round-trip, including negative zero and NaN payloads. *)
let add_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)
let add_bool b v = Buffer.add_char b (if v then '\001' else '\000')
let add_time b t = add_float b (Time.to_seconds t)

let kind_byte = function
  | Update.First_time -> 0
  | Update.Refresh -> 1
  | Update.Delete -> 2
  | Update.Append -> 3

let kind_of_byte = function
  | 0 -> Update.First_time
  | 1 -> Update.Refresh
  | 2 -> Update.Delete
  | 3 -> Update.Append
  | n -> corrupt "invalid update kind byte %d" n

(* {1 Record tags} *)

let tag_query_posted = 0
let tag_query_forwarded = 1
let tag_update_delivered = 2
let tag_clear_bit_delivered = 3
let tag_local_answer = 4
let tag_node_crashed = 5
let tag_node_recovered = 6
let tag_message_lost = 7
let tag_repair_query = 8
let tag_line = 9
let tag_scale_msg = 10
let tag_scale_refresh = 11
let tag_scale_post = 12

(* {1 Body encoding} *)

let add_span b ~trace_id ~span_id ~parent_id =
  add_int b trace_id;
  add_int b span_id;
  add_int b parent_id

let encode_body b = function
  | Event (Trace.Query_posted { at; node; key; trace_id; span_id; parent_id })
    ->
      Buffer.add_char b (Char.chr tag_query_posted);
      add_time b at;
      add_int b (Node_id.to_int node);
      add_int b (Key.to_int key);
      add_span b ~trace_id ~span_id ~parent_id
  | Event
      (Trace.Query_forwarded { at; from_; to_; key; trace_id; span_id; parent_id })
    ->
      Buffer.add_char b (Char.chr tag_query_forwarded);
      add_time b at;
      add_int b (Node_id.to_int from_);
      add_int b (Node_id.to_int to_);
      add_int b (Key.to_int key);
      add_span b ~trace_id ~span_id ~parent_id
  | Event
      (Trace.Update_delivered
         { at; from_; to_; key; kind; level; answering; entries; trace_id;
           span_id; parent_id }) ->
      Buffer.add_char b (Char.chr tag_update_delivered);
      add_time b at;
      add_int b (Node_id.to_int from_);
      add_int b (Node_id.to_int to_);
      add_int b (Key.to_int key);
      Buffer.add_char b (Char.chr (kind_byte kind));
      add_int b level;
      add_bool b answering;
      add_uvarint b (List.length entries);
      List.iter
        (fun (replica, expiry) ->
          add_int b replica;
          add_float b expiry)
        entries;
      add_span b ~trace_id ~span_id ~parent_id
  | Event
      (Trace.Clear_bit_delivered
         { at; from_; to_; key; trace_id; span_id; parent_id }) ->
      Buffer.add_char b (Char.chr tag_clear_bit_delivered);
      add_time b at;
      add_int b (Node_id.to_int from_);
      add_int b (Node_id.to_int to_);
      add_int b (Key.to_int key);
      add_span b ~trace_id ~span_id ~parent_id
  | Event
      (Trace.Local_answer
         { at; node; key; hit; waiters; trace_id; span_id; parent_id }) ->
      Buffer.add_char b (Char.chr tag_local_answer);
      add_time b at;
      add_int b (Node_id.to_int node);
      add_int b (Key.to_int key);
      add_bool b hit;
      add_int b waiters;
      add_span b ~trace_id ~span_id ~parent_id
  | Event (Trace.Node_crashed { at; node }) ->
      Buffer.add_char b (Char.chr tag_node_crashed);
      add_time b at;
      add_int b (Node_id.to_int node)
  | Event (Trace.Node_recovered { at; node }) ->
      Buffer.add_char b (Char.chr tag_node_recovered);
      add_time b at;
      add_int b (Node_id.to_int node)
  | Event
      (Trace.Message_lost { at; from_; to_; key; trace_id; span_id; parent_id })
    ->
      Buffer.add_char b (Char.chr tag_message_lost);
      add_time b at;
      add_int b (Node_id.to_int from_);
      add_int b (Node_id.to_int to_);
      add_int b (Key.to_int key);
      add_span b ~trace_id ~span_id ~parent_id
  | Event
      (Trace.Repair_query { at; node; key; attempt; trace_id; span_id; parent_id })
    ->
      Buffer.add_char b (Char.chr tag_repair_query);
      add_time b at;
      add_int b (Node_id.to_int node);
      add_int b (Key.to_int key);
      add_int b attempt;
      add_span b ~trace_id ~span_id ~parent_id
  | Line s ->
      Buffer.add_char b (Char.chr tag_line);
      Buffer.add_string b s
  | Scale (Scale.T_msg { w; dst; src; seq; body; out }) ->
      Buffer.add_char b (Char.chr tag_scale_msg);
      add_int b w;
      add_int b dst;
      add_int b src;
      add_int b seq;
      add_int b out;
      (match body with
      | Scale.B_query key ->
          Buffer.add_char b '\000';
          add_int b key
      | Scale.B_update { key; kind; level; answering } ->
          Buffer.add_char b '\001';
          add_int b key;
          Buffer.add_char b (Char.chr (kind_byte kind));
          add_int b level;
          add_bool b answering
      | Scale.B_clear key ->
          Buffer.add_char b '\002';
          add_int b key)
  | Scale (Scale.T_refresh { w; key; idx; out }) ->
      Buffer.add_char b (Char.chr tag_scale_refresh);
      add_int b w;
      add_int b key;
      add_int b idx;
      add_int b out
  | Scale (Scale.T_post { w; node; key; idx; out }) ->
      Buffer.add_char b (Char.chr tag_scale_post);
      add_int b w;
      add_int b node;
      add_int b key;
      add_int b idx;
      add_int b out

let encode ~scratch out r =
  Buffer.clear scratch;
  encode_body scratch r;
  add_uvarint out (Buffer.length scratch);
  Buffer.add_buffer out scratch

let encode_to_string r =
  let scratch = Buffer.create 128 and out = Buffer.create 128 in
  encode ~scratch out r;
  Buffer.contents out

(* {1 Decoding} *)

type cursor = { s : string; mutable pos : int; limit : int }

let need c n =
  if c.pos + n > c.limit then
    corrupt "truncated record: need %d bytes at offset %d, have %d" n c.pos
      (c.limit - c.pos)

let get_byte c =
  need c 1;
  let v = Char.code (String.unsafe_get c.s c.pos) in
  c.pos <- c.pos + 1;
  v

(* Top-level loops, not closures, so decoding a field allocates
   nothing. *)
let rec uvarint c shift acc =
  if shift > Sys.int_size then corrupt "varint too long"
  else
    let byte = get_byte c in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then acc else uvarint c (shift + 7) acc

let get_uvarint c = uvarint c 0 0
let get_int c = unzigzag (get_uvarint c)

let get_float c =
  need c 8;
  let v = Int64.float_of_bits (String.get_int64_le c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let get_time c = Time.of_seconds (get_float c)
let get_bool c = get_byte c <> 0

(* Node ids and keys share Node_key's packing limit, so every decoded
   event can index a (node, key) table. *)
let max_id = (1 lsl 30) - 1

let get_id c what =
  let i = get_int c in
  if i < 0 then corrupt "negative %s %d" what i
  else if i > max_id then corrupt "%s %d out of range" what i
  else i

let get_node c = Node_id.of_int (get_id c "node id")
let get_key c = Key.of_int (get_id c "key")

(* Every entry takes at least 9 bytes: a replica varint and an expiry. *)
let get_count c =
  let n = get_uvarint c in
  if n < 0 || n > (c.limit - c.pos) / 9 then
    corrupt "entry count %d does not fit the %d bytes left in the record" n
      (c.limit - c.pos)
  else n

let get_span c =
  let trace_id = get_int c in
  let span_id = get_int c in
  let parent_id = get_int c in
  (trace_id, span_id, parent_id)

let decode_body s ~pos ~len =
  let c = { s; pos; limit = pos + len } in
  if len < 1 then corrupt "empty record body";
  let tag = get_byte c in
  let r =
    if tag = tag_query_posted then begin
      let at = get_time c in
      let node = get_node c in
      let key = get_key c in
      let trace_id, span_id, parent_id = get_span c in
      Event (Trace.Query_posted { at; node; key; trace_id; span_id; parent_id })
    end
    else if tag = tag_query_forwarded then begin
      let at = get_time c in
      let from_ = get_node c in
      let to_ = get_node c in
      let key = get_key c in
      let trace_id, span_id, parent_id = get_span c in
      Event
        (Trace.Query_forwarded { at; from_; to_; key; trace_id; span_id; parent_id })
    end
    else if tag = tag_update_delivered then begin
      let at = get_time c in
      let from_ = get_node c in
      let to_ = get_node c in
      let key = get_key c in
      let kind = kind_of_byte (get_byte c) in
      let level = get_int c in
      let answering = get_bool c in
      let n = get_count c in
      let entries =
        List.init n (fun _ ->
            let replica = get_int c in
            let expiry = get_float c in
            (replica, expiry))
      in
      let trace_id, span_id, parent_id = get_span c in
      Event
        (Trace.Update_delivered
           { at; from_; to_; key; kind; level; answering; entries; trace_id;
             span_id; parent_id })
    end
    else if tag = tag_clear_bit_delivered then begin
      let at = get_time c in
      let from_ = get_node c in
      let to_ = get_node c in
      let key = get_key c in
      let trace_id, span_id, parent_id = get_span c in
      Event
        (Trace.Clear_bit_delivered
           { at; from_; to_; key; trace_id; span_id; parent_id })
    end
    else if tag = tag_local_answer then begin
      let at = get_time c in
      let node = get_node c in
      let key = get_key c in
      let hit = get_bool c in
      let waiters = get_int c in
      let trace_id, span_id, parent_id = get_span c in
      Event
        (Trace.Local_answer
           { at; node; key; hit; waiters; trace_id; span_id; parent_id })
    end
    else if tag = tag_node_crashed then begin
      let at = get_time c in
      let node = get_node c in
      Event (Trace.Node_crashed { at; node })
    end
    else if tag = tag_node_recovered then begin
      let at = get_time c in
      let node = get_node c in
      Event (Trace.Node_recovered { at; node })
    end
    else if tag = tag_message_lost then begin
      let at = get_time c in
      let from_ = get_node c in
      let to_ = get_node c in
      let key = get_key c in
      let trace_id, span_id, parent_id = get_span c in
      Event (Trace.Message_lost { at; from_; to_; key; trace_id; span_id; parent_id })
    end
    else if tag = tag_repair_query then begin
      let at = get_time c in
      let node = get_node c in
      let key = get_key c in
      let attempt = get_int c in
      let trace_id, span_id, parent_id = get_span c in
      Event
        (Trace.Repair_query { at; node; key; attempt; trace_id; span_id; parent_id })
    end
    else if tag = tag_line then begin
      let s = String.sub c.s c.pos (c.limit - c.pos) in
      c.pos <- c.limit;
      Line s
    end
    else if tag = tag_scale_msg then begin
      let w = get_int c in
      let dst = get_int c in
      let src = get_int c in
      let seq = get_int c in
      let out = get_int c in
      let body =
        match get_byte c with
        | 0 -> Scale.B_query (get_int c)
        | 1 ->
            let key = get_int c in
            let kind = kind_of_byte (get_byte c) in
            let level = get_int c in
            let answering = get_bool c in
            Scale.B_update { key; kind; level; answering }
        | 2 -> Scale.B_clear (get_int c)
        | n -> corrupt "invalid scale payload tag %d" n
      in
      Scale (Scale.T_msg { w; dst; src; seq; body; out })
    end
    else if tag = tag_scale_refresh then begin
      let w = get_int c in
      let key = get_int c in
      let idx = get_int c in
      let out = get_int c in
      Scale (Scale.T_refresh { w; key; idx; out })
    end
    else if tag = tag_scale_post then begin
      let w = get_int c in
      let node = get_int c in
      let key = get_int c in
      let idx = get_int c in
      let out = get_int c in
      Scale (Scale.T_post { w; node; key; idx; out })
    end
    else corrupt "unknown record tag %d" tag
  in
  if c.pos <> c.limit then
    corrupt "trailing garbage in record: %d bytes left" (c.limit - c.pos);
  r

(* {1 Channel reading} *)

let read_header ic =
  let buf = Bytes.create header_length in
  (try really_input ic buf 0 header_length
   with End_of_file -> corrupt "file shorter than the %d-byte header" header_length);
  let got = Bytes.to_string buf in
  if String.sub got 0 (String.length magic) <> magic then
    corrupt "bad magic: not a CUP binary trace";
  let v = Char.code got.[String.length magic] in
  if v <> version then corrupt "unsupported trace format version %d" v

let rec length_varint ic shift acc =
  if shift > Sys.int_size then corrupt "varint too long"
  else
    match input_byte ic with
    | exception End_of_file -> corrupt "truncated record length"
    | byte ->
        let acc = acc lor ((byte land 0x7f) lsl shift) in
        if byte land 0x80 = 0 then acc else length_varint ic (shift + 7) acc

(* Bytes left in [ic], or the longest possible body when the channel
   cannot tell (a pipe). *)
let bytes_left ic =
  match in_channel_length ic with
  | n -> n - pos_in ic
  | exception Sys_error _ -> Sys.max_string_length

let input_record ic =
  match input_byte ic with
  | exception End_of_file -> None
  | first ->
      let len =
        if first land 0x80 = 0 then first
        else length_varint ic 7 (first land 0x7f)
      in
      if len < 0 then corrupt "negative record length %d" len;
      (* A corrupt length must not size an allocation: a long one is
         checked against the file first (a seek, so only when long). *)
      if len > 4096 then begin
        let left = bytes_left ic in
        if len > left then
          corrupt "record length %d exceeds the %d bytes left in the file" len
            left
      end;
      let body = Bytes.create len in
      (try really_input ic body 0 len
       with End_of_file -> corrupt "truncated record: expected %d body bytes" len);
      Some (decode_body (Bytes.unsafe_to_string body) ~pos:0 ~len)
