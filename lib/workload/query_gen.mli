(** Search-query workload (Section 3.2).

    Queries arrive network-wide as a Poisson process with rate
    [rate] queries/second between [start] and [stop].  Each query
    picks a key from the configured popularity distribution and a
    posting node uniformly from [0, nodes) — "nodes were randomly
    selected to post the queries".

    The generator is a cursor over the arrivals, so the simulator can
    schedule one arrival at a time instead of materializing millions
    of events.  {!next} moves it to the next arrival, which {!at},
    {!key_index} and {!node_index} then read.  In the release build,
    where the float draws inline, a step allocates nothing. *)

type key_dist =
  | Uniform of int  (** uniform over [n] keys *)
  | Zipf of int * float  (** [n] keys with Zipf exponent [s] *)
  | Fixed of int  (** every query targets key index [i] (flash crowd) *)

type t

val create :
  rng:Cup_prng.Rng.t ->
  rate:float ->
  start:Cup_dess.Time.t ->
  stop:Cup_dess.Time.t ->
  nodes:int ->
  key_dist:key_dist ->
  t
(** Requires [rate > 0.], [nodes > 0], [start <= stop]. *)

val next : t -> bool
(** Advance to the next arrival: [true] when there is one, [false]
    once past [stop].  Arrival times are strictly increasing.  An
    arrival draws its inter-arrival gap, then its node, then its key,
    from the generator's stream. *)

val at : t -> Cup_dess.Time.t
(** The current arrival's time ([stop] once {!next} has returned
    [false]). *)

val key_index : t -> int
(** The current arrival's key index. *)

val node_index : t -> int
(** The current arrival's posting node index. *)

val fold : t -> init:'a -> f:('a -> t -> 'a) -> 'a
(** Drain the stream, calling [f] at each arrival with the generator
    positioned on it (for tests and non-interactive analyses). *)
