type t = float

let zero = 0.
external of_seconds : float -> t = "%identity"
external to_seconds : t -> float = "%identity"
external add : t -> float -> t = "%addfloat"
external diff : t -> t -> float = "%subfloat"
external ( <= ) : t -> t -> bool = "%lessequal"
external ( < ) : t -> t -> bool = "%lessthan"
external ( >= ) : t -> t -> bool = "%greaterequal"
external ( > ) : t -> t -> bool = "%greaterthan"
let min (a : t) b = if a <= b then a else b
let max (a : t) b = if a >= b then a else b
let compare = Float.compare
let is_finite = Float.is_finite
let infinity = Float.infinity
let pp fmt t = Format.fprintf fmt "%.3fs" t
