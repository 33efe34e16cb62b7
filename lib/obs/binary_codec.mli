(** Compact binary encoding of protocol and scale-runner trace records
    — the [.ctrace] format.

    {b File layout.}  A trace file is a 9-byte header — the 8-byte
    magic ["CUPTRACE"] followed by one format-version byte (currently
    [1]) — then a flat sequence of records.  Each record is an
    unsigned LEB128 varint body length followed by the body; the body
    is one tag byte followed by the fields of that record shape.

    {b Field encodings.}  Integer fields are zigzag-mapped
    ([ (n lsl 1) lxor (n asr 62) ]) and LEB128-encoded, so small
    magnitudes of either sign stay short and every OCaml [int]
    round-trips exactly.  Lengths and counts are plain (non-negative)
    LEB128.  Times and expiries are the raw IEEE-754 double bit
    pattern, little-endian — bit-exact, so JSONL conversion reproduces
    identical decimal renderings.  Booleans are one byte, update kinds
    one byte ([0] first-time, [1] refresh, [2] delete, [3] append).

    {b Record tags.}  [0]–[8] are the nine {!Cup_sim.Trace.event}
    constructors in declaration order; [9] is a raw opaque line
    (carried verbatim, no trailing newline) so format conversion is
    lossless on foreign input; [10]–[12] are the scale-runner records
    ({!Cup_sim.Scale.trace_event}: message / refresh / post).

    Encoding is a pure function of the record — byte-deterministic —
    so the cross-shard and cross-job-count byte-identity contracts of
    the JSONL traces carry over unchanged. *)

val magic : string
val version : int

val header : string
(** [magic] + version byte; every [.ctrace] file starts with this. *)

val header_length : int

type record =
  | Event of Cup_sim.Trace.event
  | Scale of Cup_sim.Scale.trace_event
  | Line of string
      (** An opaque line carried verbatim (without its newline). *)

exception Corrupt of string
(** Raised by the decoding functions on malformed input. *)

val max_id : int
(** The largest node id or key either trace format accepts,
    2{^30} − 1: the limit of {!Cup_overlay.Node_key.pack}, which the
    analyzer keys its tables with. *)

(** {1 Encoding} *)

val encode_body : Buffer.t -> record -> unit
(** Append the record body (tag byte + fields, {e no} length prefix)
    to [b].  Building block for arenas that frame records
    themselves. *)

val encode : scratch:Buffer.t -> Buffer.t -> record -> unit
(** [encode ~scratch out r] appends the framed record (length prefix +
    body) to [out].  [scratch] is clobbered; reusing one scratch
    buffer across calls makes encoding allocation-free once both
    buffers have grown to steady state. *)

val encode_to_string : record -> string
(** One framed record as a fresh string (convenience for tests). *)

(** {1 Decoding} *)

val decode_body : string -> pos:int -> len:int -> record
(** Decode one record body occupying [s.[pos .. pos+len-1]] — the
    inverse of {!encode_body}.  Raises {!Corrupt} on malformed bytes,
    including trailing garbage inside the body, a node id or key
    outside [0 .. max_id], and an entry count the body cannot hold. *)

val read_header : in_channel -> unit
(** Consume and validate the file header.  Raises {!Corrupt} on bad
    magic or an unsupported version. *)

val input_record : in_channel -> record option
(** Read the next framed record; [None] at a clean end-of-file.
    Raises {!Corrupt} on a truncated or malformed record.  A negative
    record length, or one longer than the rest of the file, is
    {!Corrupt} before the body is allocated; a channel that cannot
    report its length (a pipe) only catches lengths beyond
    [Sys.max_string_length] that way. *)
