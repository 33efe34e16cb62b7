module Time = Cup_dess.Time
module Rng = Cup_prng.Rng
module Dist = Cup_prng.Dist

type key_dist = Uniform of int | Zipf of int * float | Fixed of int

type sampler = Uniform_s of int | Zipf_s of Dist.zipf | Fixed_s of int

(* Only floats, so OCaml stores the record flat and moving the cursor
   allocates no boxed time. *)
type times = { rate : float; stop : Time.t; mutable clock : Time.t }

type t = {
  rng : Rng.t;
  nodes : int;
  sampler : sampler;
  times : times;
  mutable key_index : int;
  mutable node_index : int;
}

let create ~rng ~rate ~start ~stop ~nodes ~key_dist =
  if not (rate > 0.) then invalid_arg "Query_gen.create: rate must be > 0";
  if nodes <= 0 then invalid_arg "Query_gen.create: nodes must be > 0";
  if Time.(stop < start) then invalid_arg "Query_gen.create: stop < start";
  let sampler =
    match key_dist with
    | Uniform n ->
        if n <= 0 then invalid_arg "Query_gen.create: need >= 1 key";
        Uniform_s n
    | Zipf (n, s) -> Zipf_s (Dist.zipf ~n ~s)
    | Fixed i ->
        if i < 0 then invalid_arg "Query_gen.create: negative key index";
        Fixed_s i
  in
  {
    rng;
    nodes;
    sampler;
    times = { rate; stop; clock = start };
    key_index = 0;
    node_index = 0;
  }

let sample_key t =
  match t.sampler with
  | Uniform_s n -> Rng.int t.rng n
  | Zipf_s z -> Dist.zipf_sample z t.rng
  | Fixed_s i -> i

(* Each arrival draws its gap, then its node, then its key: the order
   every pinned run was recorded with. *)
let next t =
  let times = t.times in
  let at = Time.add times.clock (Dist.exponential t.rng ~rate:times.rate) in
  if Time.(at > times.stop) then begin
    times.clock <- times.stop;
    false
  end
  else begin
    times.clock <- at;
    t.node_index <- Rng.int t.rng t.nodes;
    t.key_index <- sample_key t;
    true
  end

let at t = t.times.clock
let key_index t = t.key_index
let node_index t = t.node_index

let fold t ~init ~f =
  let rec loop acc = if next t then loop (f acc t) else acc in
  loop init
