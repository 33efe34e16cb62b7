(** Rectangular zones of the CAN coordinate space.

    A zone is a half-open axis-aligned rectangle
    [\[x_lo, x_hi) × \[y_lo, y_hi)] inside the unit square.  Zones are
    produced only by binary splits of the unit square, so all bounds
    are exact dyadic floats and equality tests on bounds are exact —
    the adjacency test relies on this. *)

type t = private { x_lo : float; x_hi : float; y_lo : float; y_hi : float }

val unit : t
(** The whole coordinate space. *)

val make : x_lo:float -> x_hi:float -> y_lo:float -> y_hi:float -> t
(** Raises [Invalid_argument] unless [0 <= lo < hi <= 1] in each
    dimension. *)

val contains : t -> Point.t -> bool

val split : t -> t * t
(** [split z] halves [z] along its longer dimension (x on ties).  The
    first component is the low half. *)

type axis = X | Y

val split_axis : t -> axis * float
(** The axis and coordinate {!split} cuts [z] at: a point of [z] lies
    in the low half exactly when its coordinate on that axis is below
    the cut. *)

val volume : t -> float

val center : t -> Point.t

val adjacent : t -> t -> bool
(** [adjacent a b] is [true] when [a] and [b] share a border segment of
    positive length on the torus (they abut in one dimension, possibly
    across the wrap-around seam, and overlap in the other).  A zone is
    not adjacent to itself unless it wraps the whole torus in some
    dimension. *)

val distance_to_point : t -> Point.t -> float
(** Torus distance from the point to the nearest point of the zone;
    [0.] if the point is inside. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
