(** Structured protocol traces.

    A tracer observes every protocol event the runner performs —
    queries posted and forwarded, updates delivered, clear-bits,
    local answers — as typed events.  Attach one to a live simulation
    with {!Runner.Live.set_tracer} to debug protocol behaviour or to
    narrate it (see [examples/walkthrough.ml]).

    {2 Causal spans}

    Every protocol event except the membership pair carries three span
    fields linking it into a propagation tree:

    - [trace_id] names the root cause — a posted query, an
      origin-server update, or a repair attempt.  All events caused by
      the same root share one trace id.
    - [span_id] uniquely names this event within the run.
    - [parent_id] is the [span_id] of the event that caused this one,
      or [0] when the event is itself a root of its trace.

    Ids are drawn from a per-run counter in deterministic engine
    order, so they are byte-identical across job counts.  A run with no tracer (and no metrics registry) attached
    does not allocate ids at all; such ids print as [0], which is also
    what the JSONL codec substitutes when parsing legacy id-less
    traces.

    {!t} is a bounded ring buffer of events: constant memory no matter
    how long the run, keeping the most recent [capacity] events. *)

type event =
  | Query_posted of {
      at : Cup_dess.Time.t;
      node : Cup_overlay.Node_id.t;
      key : Cup_overlay.Key.t;
      trace_id : int;
      span_id : int;
      parent_id : int;
    }
  | Query_forwarded of {
      at : Cup_dess.Time.t;
      from_ : Cup_overlay.Node_id.t;
      to_ : Cup_overlay.Node_id.t;
      key : Cup_overlay.Key.t;
      trace_id : int;
      span_id : int;
      parent_id : int;
    }
  | Update_delivered of {
      at : Cup_dess.Time.t;
      from_ : Cup_overlay.Node_id.t;
      to_ : Cup_overlay.Node_id.t;
      key : Cup_overlay.Key.t;
      kind : Cup_proto.Update.kind;
      level : int;
      answering : bool;
      entries : (int * float) list;
          (** the update's payload as [(replica id, expiry seconds)]
              pairs, in the update's own order — enough for an online
              freshness-monotonicity oracle ({!Cup_obs.Audit}) to
              track the receiver's cache without replaying the
              protocol.  Empty on legacy JSONL traces. *)
      trace_id : int;
      span_id : int;
      parent_id : int;
    }
  | Clear_bit_delivered of {
      at : Cup_dess.Time.t;
      from_ : Cup_overlay.Node_id.t;
      to_ : Cup_overlay.Node_id.t;
      key : Cup_overlay.Key.t;
      trace_id : int;
      span_id : int;
      parent_id : int;
    }
  | Local_answer of {
      at : Cup_dess.Time.t;
      node : Cup_overlay.Node_id.t;
      key : Cup_overlay.Key.t;
      hit : bool;
      waiters : int;
      trace_id : int;
      span_id : int;
      parent_id : int;
    }
  | Node_crashed of {
      at : Cup_dess.Time.t;
      node : Cup_overlay.Node_id.t;
    }  (** fault injection removed the node without handover *)
  | Node_recovered of {
      at : Cup_dess.Time.t;
      node : Cup_overlay.Node_id.t;
    }  (** a replacement node joined after a crash *)
  | Message_lost of {
      at : Cup_dess.Time.t;
      from_ : Cup_overlay.Node_id.t;
      to_ : Cup_overlay.Node_id.t;
      key : Cup_overlay.Key.t;
      trace_id : int;
      span_id : int;
      parent_id : int;
    }  (** a message dropped on the wire or sent to a crashed node *)
  | Repair_query of {
      at : Cup_dess.Time.t;
      node : Cup_overlay.Node_id.t;
      key : Cup_overlay.Key.t;
      attempt : int;
      trace_id : int;
      span_id : int;
      parent_id : int;
    }
      (** the justification-deadline timeout fired and the node
          re-issued its interest up the overlay path *)

val event_time : event -> Cup_dess.Time.t

val event_span : event -> (int * int * int) option
(** [(trace_id, span_id, parent_id)] for protocol events, [None] for
    the membership events which carry no span. *)

val pp_event : Format.formatter -> event -> unit

type t
(** A bounded event ring. *)

val create : ?capacity:int -> unit -> t
(** Default capacity: 4096 events. *)

val record : t -> event -> unit
val length : t -> int
val dropped : t -> int
(** Events that fell off the ring because it was full. *)

val events : t -> event list
(** Retained events, oldest first. *)

val clear : t -> unit

val filter_key : t -> Cup_overlay.Key.t -> event list
(** Retained events touching one key, oldest first.  Membership events
    ([Node_crashed], [Node_recovered]) carry no key and never match. *)
