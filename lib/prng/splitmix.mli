(** SplitMix64: a fast, splittable 64-bit pseudo-random generator.

    This is the generator from Steele, Lea and Flood, "Fast Splittable
    Pseudorandom Number Generators" (OOPSLA 2014), as popularized by
    Vigna's [splitmix64.c].  We use it as the root of all randomness in
    the simulator because it is trivially seedable, has a cheap [split]
    operation for carving independent substreams (one per workload
    generator, one per node, ...), and is fully deterministic across
    platforms — a requirement for reproducible simulation runs. *)

type t
(** Mutable generator state: the 64-bit word, held unboxed, so a step
    allocates nothing.  {!mix}, {!next_int64} and {!next_float} are
    inlined across modules in the release build, where a float draw
    stays unboxed into its caller; {!next_int} is a loop that
    allocates nothing. *)

val create : int64 -> t
(** [create seed] makes a fresh generator from a 64-bit seed. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val next_int64 : t -> int64
(** [next_int64 t] advances [t] and returns 64 uniformly random bits. *)

val next_int : t -> int -> int
(** [next_int t bound] is uniform in [\[0, bound)].  [bound] must be
    positive.  Uses rejection sampling, so it is exactly uniform. *)

val next_float : t -> float
(** [next_float t] is uniform in [\[0, 1)], with 53 bits of precision. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val mix : int64 -> int64
(** [mix z] is the stateless SplitMix64 finalizer — a high-quality
    64-bit hash.  Exposed for hashing keys to overlay coordinates. *)
