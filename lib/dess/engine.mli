(** Sequential discrete-event simulation engine.

    This replaces the Stanford Narses simulator used by the paper: a
    single virtual clock and an event queue.  Callbacks scheduled with
    {!schedule} run at their timestamp in nondecreasing time order;
    equal timestamps run in scheduling order, so a run is a pure
    function of its inputs and random seed.

    A callback may schedule further events (including at the current
    instant) and may cancel pending ones. *)

type t

type handle = Event_heap.handle
(** A pending event, usable with {!cancel}. *)

val create : unit -> t
(** A fresh engine at {!Time.zero} with an empty queue.  Its queue is
    the binary {!Event_heap}, the simulator's only scheduler: a
    simulation scenario's [scheduler] field selects nothing and is kept
    as a no-op. *)

val now : t -> Time.t
(** Current virtual time.  [Time.zero] before the first event. *)

val schedule : ?label:string -> t -> at:Time.t -> (t -> unit) -> handle
(** [schedule t ~at f] runs [f t] at virtual time [at].  Raises
    [Invalid_argument] if [at] is in the past or not finite.

    [label] names the callback for the profiling probes (see
    {!enable_profiling}); it is ignored — and costs nothing — while
    profiling is disabled. *)

val schedule_after : ?label:string -> t -> delay:float -> (t -> unit) -> handle
(** [schedule_after t ~delay f] is [schedule t ~at:(now t + delay) f].
    Requires [delay >= 0.]. *)

val cancel : t -> handle -> bool
(** Cancel a pending event; [false] if it already ran or was cancelled. *)

val stop : t -> unit
(** Stop the current {!run} after the executing callback returns. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** [run t] executes events until the queue empties, [until] is
    exceeded (events strictly after [until] stay queued and [now]
    becomes [until]), [max_events] callbacks have run, or {!stop} is
    called. *)

val pending : t -> int
(** Number of scheduled, not-yet-fired, not-cancelled events. *)

val events_executed : t -> int
(** Total callbacks run since [create]. *)

(** {1 Profiling probes}

    Optional observability hooks: when enabled, the engine counts
    executed callbacks and accumulates host time per {!schedule}
    label, and tracks the event heap's high-water mark.  When disabled
    (the default) the probes cost nothing — events are pushed and run
    exactly as before, with no wrapping, timing, or bookkeeping.

    Only events scheduled {e while} profiling is enabled are
    attributed to their labels, so enable profiling before scheduling
    the work to be measured. *)

type label_stats = {
  calls : int;  (** callbacks executed under this label *)
  host_seconds : float;  (** summed host wallclock inside them *)
}

type profile = {
  heap_high_water : int;
      (** largest number of simultaneously pending events observed *)
  by_label : (string * label_stats) list;
      (** per-label totals, heaviest (by host time) first *)
}

val enable_profiling : t -> unit
(** Idempotent; an existing profile keeps accumulating. *)

val disable_profiling : t -> unit
(** Stop collecting.  Already-gathered data stays readable via
    {!profile}. *)

val profiling_enabled : t -> bool

val profile : t -> profile option
(** Snapshot of the gathered data; [None] if profiling was never
    enabled on this engine. *)

val pp_profile : Format.formatter -> profile -> unit
