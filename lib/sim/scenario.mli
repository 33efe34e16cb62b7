(** Simulation scenarios: everything that defines one run.

    The timeline of a run is

    {v
    0 ............ query_start ............ +query_duration ....... +drain
    | replica births (staggered) |  queries posted (Poisson)  | cool-down |
    v}

    Replica refreshes flow for the whole run.  All costs are accounted
    over the whole run, as in the paper (whose simulations ran longer
    than the querying window). *)

type capacity_mode =
  | Bernoulli
      (** a node with capacity [c] forwards each non-first-time update
          with probability [c] — the paper's "only pushing out
          one-fourth the updates it receives" (Section 3.7) *)
  | Token_bucket of float
      (** a node with capacity [c] pushes at most [c *. rate] updates
          per second through the Section 2.8 priority queues; the
          float is the full-capacity [rate] *)

type fault_spec =
  | Up_and_down of {
      fraction : float;
      reduced : float;
      warmup : float;
      down : float;
      gap : float;
    }
  | Once_down of { fraction : float; reduced : float; warmup : float }

type crash_spec = {
  crash_rate : float;
      (** Poisson intensity of node crashes, crashes/second.  Each
          crash removes a uniformly chosen alive node without handing
          its directories over (Section 2.9's unplanned departure). *)
  recover_after : float;
      (** seconds after each crash until a replacement node joins at a
          random position; [0.] means crashed capacity is never
          replaced *)
  warmup : float;
      (** seconds after [query_start] before the first crash can
          occur *)
}

type loss_spec = {
  drop : float;
      (** mean per-message drop probability across directed channels *)
  jitter : float;
      (** per-channel spread in [\[0, 1\]]: each directed (from, to)
          channel drops with probability
          [drop * (1 + jitter * u)] for a deterministic per-channel
          [u] in [\[-1, 1)], clamped to [\[0, 1\]].  [0.] gives every
          channel the same rate. *)
}

type partition_spec = {
  fraction : float;
      (** each node lands on the island side of the cut with this
          probability, decided by a pure hash of (run salt, node id) —
          membership is stable for the whole run and costs no PRNG
          draws *)
  p_start : float;  (** seconds after [query_start] the cut opens *)
  p_duration : float;  (** seconds the cut stays open *)
  symmetric : bool;
      (** [true] drops every message crossing the cut.  [false] — the
          asymmetric shape — drops only messages {e into} the island:
          island nodes keep sending (queries escape, clear-bits
          escape) but never hear back, the classic one-way
          reachability pathology. *)
}

type reorder_spec = {
  r_probability : float;
      (** per-message probability of a delayed (hence potentially
          reordered) delivery, drawn from the dedicated "reorder"
          substream in event order *)
  r_spread : float;
      (** a delayed message arrives after
          [hop_delay * (1 + u * r_spread)], [u] uniform in [\[0, 1)];
          bounded by validation to 32 hop delays so transport-level
          repair timeouts are never mistaken for loss *)
}

type duplicate_spec = {
  d_probability : float;
      (** per-message probability the channel delivers a second copy
          one extra hop delay later.  Each copy is a distinct
          transport message (own sent/delivered accounting, own span),
          so conservation and span soundness hold per copy. *)
}

type t = {
  seed : int;
  nodes : int;
  overlay : Cup_overlay.Net.kind;
      (** which structured overlay CUP runs over (Section 2.2): a 2-d
          CAN with random or grid placement, or a Chord ring *)
  scheduler : [ `Heap | `Calendar ] option;
      (** Has no effect: every run's engine drives the one
          {!Cup_dess.Event_heap}.  The field stays because the
          benchmark's [dess.calendar_over_heap_wall] pair sets it (the
          pair now times two heap runs and reads about 1.0); it goes
          once that pair is dropped. *)
  keys_per_node : float;
  total_keys_override : int option;
      (** when set, the exact number of keys in the global index; the
          paper's evaluation workloads exercise a single key's CUP
          tree, i.e. [Some 1] *)
  replicas_per_key : int;
  replica_lifetime : float;  (** seconds; the paper uses 300 *)
  death_prob : float;
      (** probability a replica dies (instead of refreshing) at each
          expiration; a replacement is born to keep the population *)
  node_config : Cup_proto.Node_store.config;
  hop_delay : float;  (** seconds per overlay hop *)
  query_rate : float;  (** network-wide Poisson rate, queries/second *)
  query_start : float;
  query_duration : float;
  drain : float;  (** extra simulated time after querying stops *)
  key_dist : [ `Uniform | `Zipf of float ];
  capacity_mode : capacity_mode;
  queue_ordering : Cup_proto.Update_queue.ordering;
  faults : fault_spec option;
  crashes : crash_spec option;
      (** node crash/recovery injection; crashes are drawn from the
          deterministic PRNG ("crashes" substream), so the same seed
          and spec produce the same crash schedule on every run *)
  loss : loss_spec option;
      (** per-channel message loss; in-flight queries retransmit with
          capped exponential backoff, lost update flow is healed by
          the justification-deadline repair (see README "Robustness") *)
  partition : partition_spec option;
      (** a network cut for a time window; drops across the cut are
          accounted exactly like wire loss (retry/repair heal the flow
          after the cut closes) *)
  reorder : reorder_spec option;
      (** per-message delivery-delay jitter: messages can overtake
          each other on the wire.  Receivers discard entries staler
          than their cache (see {!Cup_proto.Node_store}), so reordering
          never regresses freshness. *)
  duplication : duplicate_spec option;
      (** per-message duplicate delivery; protocol handlers tolerate
          redelivery (interest sets and entry upserts are idempotent,
          pending queries coalesce) *)
  refresh_batch_window : float;
      (** Section 3.6's aggregation technique: when [> 0.], the
          authority buffers replica refreshes for a key and propagates
          them as one batched update once the window closes.  [0.]
          sends every replica refresh separately, as in the paper's
          Table 3 runs. *)
  refresh_sample : float;
      (** Section 3.6's suppression technique: the authority
          propagates each replica refresh with this probability
          (its local directory is always updated).  [1.] propagates
          everything. *)
  piggyback_clear_bits : bool;
      (** When [true], clear-bit hops are not charged to the overhead
          (Section 2.7 allows piggy-backing them onto queries or
          updates; the paper's accounting conservatively does not). *)
  flat_node_state : bool;
      (** Has no effect: every run keeps its protocol state in the one
          {!Cup_proto.Node_store}.  The field stays because the
          benchmark's [proto.flat_over_map_wall] pair sets it (the
          pair now reads about 1.0); it goes once that pair is
          dropped. *)
}

val default : t
(** 256 random-placement CAN nodes, 1 key/node, 1 replica/key, lifetime
    300 s, second-chance policy with replica-independent cut-off,
    10 ms hops, 1 query/s for 3000 s after a 300 s start, 600 s drain,
    uniform keys, Bernoulli capacity (all nodes at full), latency-first
    queue ordering, no faults, no refresh batching or sampling. *)

val sim_end : t -> float
(** [query_start + query_duration + drain]. *)

val total_keys : t -> int

val with_policy : t -> Cup_proto.Policy.t -> t
(** Convenience: replace the cut-off policy, keeping the rest. *)

val fault_injection : t -> bool
(** Whether any channel/node fault injection is configured (crashes,
    loss, partition, reordering or duplication); the runner only arms
    its repair machinery (deadline checks, transport retries) when
    this holds, so fault-free scenarios are byte-identical to runs
    before the fault subsystem existed. *)

val validate : t -> (unit, string) result
(** [Error msg] names the first field out of range: a count below its
    minimum, a float that is not finite where one is required, a
    probability outside [\[0, 1\]], or a cut-off policy parameter that
    is not a finite alpha [>= 0], a push level [>= 0] or a log-based
    window [>= 1].  {!Runner} and the CLI refuse such a scenario. *)
