(** Simulated time.

    Time is a float number of seconds since the start of a run.  A thin
    module (rather than a bare [float]) so call sites read as time
    arithmetic.

    [t] is manifestly [float], and the conversions, the arithmetic and
    the four comparisons are compiler primitives at that type.  Every
    call site therefore compiles to one float instruction, even where
    the library is built with [-opaque]: no call, no boxed float, and
    no generic [caml_lessthan]. *)

type t = float

val zero : t
external of_seconds : float -> t = "%identity"
external to_seconds : t -> float = "%identity"
external add : t -> float -> t = "%addfloat"

external diff : t -> t -> float = "%subfloat"
(** [diff later earlier] is [later - earlier] in seconds. *)

external ( <= ) : t -> t -> bool = "%lessequal"
external ( < ) : t -> t -> bool = "%lessthan"
external ( >= ) : t -> t -> bool = "%greaterequal"
external ( > ) : t -> t -> bool = "%greaterthan"

val min : t -> t -> t
(** [Stdlib.min] at type float: [if a <= b then a else b], so a tie
    returns [a] and a NaN on either side returns [b]. *)

val max : t -> t -> t
(** [Stdlib.max] at type float: [if a >= b then a else b]. *)

val compare : t -> t -> int
val is_finite : t -> bool
val infinity : t
val pp : Format.formatter -> t -> unit
