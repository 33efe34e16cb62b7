type capacity_mode = Bernoulli | Token_bucket of float

type fault_spec =
  | Up_and_down of {
      fraction : float;
      reduced : float;
      warmup : float;
      down : float;
      gap : float;
    }
  | Once_down of { fraction : float; reduced : float; warmup : float }

type crash_spec = { crash_rate : float; recover_after : float; warmup : float }

type loss_spec = { drop : float; jitter : float }

type partition_spec = {
  fraction : float;  (* expected share of nodes on the island side *)
  p_start : float;  (* seconds after query_start the cut opens *)
  p_duration : float;  (* seconds the cut stays open *)
  symmetric : bool;
      (* [true]: no message crosses the cut either way.  [false]
         (asymmetric, the interesting shape): island nodes can still
         send out, but nothing reaches them — one-way reachability. *)
}

type reorder_spec = {
  r_probability : float;  (* per-message chance of a delayed delivery *)
  r_spread : float;  (* extra delay, as a multiple of hop_delay *)
}

type duplicate_spec = { d_probability : float }
(* per-message chance the channel delivers a second copy *)

type t = {
  seed : int;
  nodes : int;
  overlay : Cup_overlay.Net.kind;
  scheduler : [ `Heap | `Calendar ] option;
  keys_per_node : float;
  total_keys_override : int option;
  replicas_per_key : int;
  replica_lifetime : float;
  death_prob : float;
  node_config : Cup_proto.Node_store.config;
  hop_delay : float;
  query_rate : float;
  query_start : float;
  query_duration : float;
  drain : float;
  key_dist : [ `Uniform | `Zipf of float ];
  capacity_mode : capacity_mode;
  queue_ordering : Cup_proto.Update_queue.ordering;
  faults : fault_spec option;
  crashes : crash_spec option;
  loss : loss_spec option;
  partition : partition_spec option;
  reorder : reorder_spec option;
  duplication : duplicate_spec option;
  refresh_batch_window : float;
  refresh_sample : float;
  piggyback_clear_bits : bool;
  flat_node_state : bool;
}

let default =
  {
    seed = 1;
    nodes = 256;
    overlay = Cup_overlay.Net.Can `Random;
    scheduler = None;
    keys_per_node = 1.;
    total_keys_override = None;
    replicas_per_key = 1;
    replica_lifetime = 300.;
    death_prob = 0.;
    node_config = Cup_proto.Node_store.default_config;
    hop_delay = 0.01;
    query_rate = 1.;
    query_start = 300.;
    query_duration = 3000.;
    drain = 600.;
    key_dist = `Uniform;
    capacity_mode = Bernoulli;
    queue_ordering = Cup_proto.Update_queue.Latency_first;
    faults = None;
    crashes = None;
    loss = None;
    partition = None;
    reorder = None;
    duplication = None;
    refresh_batch_window = 0.;
    refresh_sample = 1.;
    piggyback_clear_bits = false;
    flat_node_state = false;
  }

let sim_end t = t.query_start +. t.query_duration +. t.drain

let total_keys t =
  match t.total_keys_override with
  | Some k -> k
  | None ->
      Stdlib.max 1
        (int_of_float (Float.round (float_of_int t.nodes *. t.keys_per_node)))

let with_policy t policy =
  { t with node_config = { t.node_config with policy } }

let fault_injection t =
  t.crashes <> None || t.loss <> None || t.partition <> None
  || t.reorder <> None || t.duplication <> None

(* Every float bound below is written so that NaN fails it, and the
   unbounded ones also demand a finite value: an infinite rate or
   duration would never finish, an infinite lifetime never expire. *)
let validate t =
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) = Result.bind in
  let positive name x =
    check (Float.is_finite x && x > 0.) (name ^ " must be finite and > 0")
  in
  let nonneg name x =
    check (Float.is_finite x && x >= 0.) (name ^ " must be finite and >= 0")
  in
  let unit_interval name x =
    check (x >= 0. && x <= 1.) (name ^ " must be in [0, 1]")
  in
  let* () = check (t.nodes >= 1) "nodes must be >= 1" in
  let* () = positive "keys_per_node" t.keys_per_node in
  let* () =
    check
      (match t.total_keys_override with Some k -> k >= 1 | None -> true)
      "total_keys_override must be >= 1"
  in
  let* () = check (t.replicas_per_key >= 1) "replicas_per_key must be >= 1" in
  let* () = positive "replica_lifetime" t.replica_lifetime in
  let* () = unit_interval "death_prob" t.death_prob in
  let* () = nonneg "hop_delay" t.hop_delay in
  let* () = positive "query_rate" t.query_rate in
  let* () = nonneg "query_start" t.query_start in
  let* () = positive "query_duration" t.query_duration in
  let* () = nonneg "drain" t.drain in
  let* () =
    match t.key_dist with
    | `Uniform -> Ok ()
    | `Zipf s -> nonneg "zipf exponent" s
  in
  let* () = nonneg "refresh_batch_window" t.refresh_batch_window in
  let* () = unit_interval "refresh_sample" t.refresh_sample in
  let* () =
    match t.capacity_mode with
    | Bernoulli -> Ok ()
    | Token_bucket rate -> positive "token bucket rate" rate
  in
  let* () =
    match t.node_config.policy with
    | Standard_caching | All_out -> Ok ()
    | Linear alpha -> nonneg "linear alpha" alpha
    | Logarithmic alpha -> nonneg "logarithmic alpha" alpha
    | Push_level p -> check (p >= 0) "push level must be >= 0"
    | Log_based n -> check (n >= 1) "log-based window must be >= 1"
  in
  let* () =
    match t.faults with
    | None -> Ok ()
    | Some (Up_and_down { fraction; reduced; warmup; down; gap }) ->
        let* () = unit_interval "fraction" fraction in
        let* () = unit_interval "reduced" reduced in
        let* () = nonneg "warmup" warmup in
        let* () = positive "down" down in
        nonneg "gap" gap
    | Some (Once_down { fraction; reduced; warmup }) ->
        let* () = unit_interval "fraction" fraction in
        let* () = unit_interval "reduced" reduced in
        nonneg "warmup" warmup
  in
  let* () =
    match t.crashes with
    | None -> Ok ()
    | Some { crash_rate; recover_after; warmup } ->
        let* () = positive "crash_rate" crash_rate in
        let* () = nonneg "recover_after" recover_after in
        nonneg "crash warmup" warmup
  in
  let* () =
    match t.loss with
    | None -> Ok ()
    | Some { drop; jitter } ->
        let* () = unit_interval "drop" drop in
        unit_interval "jitter" jitter
  in
  let* () =
    match t.partition with
    | None -> Ok ()
    | Some { fraction; p_start; p_duration; symmetric = _ } ->
        let* () = unit_interval "partition fraction" fraction in
        let* () = nonneg "partition start" p_start in
        positive "partition duration" p_duration
  in
  let* () =
    match t.reorder with
    | None -> Ok ()
    | Some { r_probability; r_spread } ->
        let* () = unit_interval "reorder probability" r_probability in
        check
          (r_spread > 0. && r_spread <= 32.)
          "reorder spread must be in (0, 32] hop delays"
  in
  match t.duplication with
  | None -> Ok ()
  | Some { d_probability } ->
      unit_interval "duplicate probability" d_probability
