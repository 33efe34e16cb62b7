(** Random variates for the simulation workloads.

    The paper's evaluation generates query arrivals as a Poisson process
    (exponential inter-arrivals), picks querying nodes uniformly, and
    leaves the query-popularity distribution as an input; we provide
    uniform and Zipf.  All samplers draw from a {!Rng.t} stream. *)

val exponential : Rng.t -> rate:float -> float
(** [exponential rng ~rate] samples Exp(rate) by inversion.  This is the
    inter-arrival time of a Poisson process with intensity [rate].
    Requires [rate > 0.]. *)

val poisson : Rng.t -> mean:float -> int
(** [poisson rng ~mean] samples a Poisson count.  Uses Knuth's product
    method for small means and a normal approximation above 500 to keep
    the cost bounded.  Requires [mean >= 0.]. *)

val bernoulli : Rng.t -> p:float -> bool
(** [bernoulli rng ~p] is [true] with probability [p] (clamped to
    [\[0, 1\]]). *)

val normal : Rng.t -> mu:float -> sigma:float -> float
(** Gaussian via Box–Muller. *)

type zipf
(** A precomputed Zipf(s) sampler over [\[0, n)]: rank [k] has
    probability proportional to [1 / (k+1)^s]. *)

val zipf : n:int -> s:float -> zipf
(** [zipf ~n ~s] precomputes the CDF; O(n) space, O(log n) sampling.
    Requires [n > 0] and [s >= 0.]  ([s = 0.] degenerates to uniform). *)

val zipf_sample : zipf -> Rng.t -> int

val zipf_pmf : zipf -> int -> float
(** [zipf_pmf z k] is the probability of rank [k] (for tests). *)

type categorical
(** Arbitrary finite discrete distribution over [\[0, n)]. *)

val categorical : weights:float array -> categorical
(** Requires at least one strictly positive weight; negative weights are
    rejected. *)

val categorical_sample : categorical -> Rng.t -> int
