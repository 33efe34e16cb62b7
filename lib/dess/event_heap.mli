(** Binary min-heap of timestamped events: the engine's event queue.

    The heap pops events in the [(time, seq)] total order, where [seq]
    is assigned at insertion: earlier times first, and two events
    scheduled for the same instant fire first in, first out.  That
    tie-break is what makes a whole simulation run a pure function of
    its inputs and seed, so it is part of the contract, not an
    implementation detail.

    Cancellation is O(1) by tombstoning: a cancelled event stays in the
    array and is discarded lazily when it reaches the top.  A fired or
    discarded event is not kept reachable.

    This is the simulator's only event queue: the [scheduler] field of
    a simulation scenario selects nothing and is kept as a no-op. *)

type 'a t

type handle
(** Identifies a scheduled event for cancellation. *)

val create : unit -> 'a t

val length : 'a t -> int
(** Number of live (non-cancelled) events. *)

val is_empty : 'a t -> bool

val push : 'a t -> time:Time.t -> 'a -> handle
(** [push t ~time v] schedules [v] at [time] and returns a handle. *)

val cancel : 'a t -> handle -> bool
(** [cancel t h] tombstones the event; returns [false] if it already
    fired or was already cancelled. *)

val pop : 'a t -> (Time.t * 'a) option
(** [pop t] removes and returns the earliest live event in
    [(time, seq)] order. *)

val peek_time : 'a t -> Time.t option
(** Timestamp of the earliest live event, without removing it. *)
