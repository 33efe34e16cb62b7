(* Loops, not local recursive functions: a closure would be allocated
   per call and a float returned from one is boxed. *)
let[@inline] exponential rng ~rate =
  if not (rate > 0.) then invalid_arg "Dist.exponential: rate must be > 0";
  (* Inversion: -ln(U)/rate.  [Rng.float] is in [0,1), so guard the
     u = 0 endpoint which would yield infinity. *)
  let u = ref (Rng.float rng) in
  while not (!u > 0.) do
    u := Rng.float rng
  done;
  -.log !u /. rate

let normal rng ~mu ~sigma =
  let u1 = ref (Rng.float rng) in
  while !u1 <= 0. do
    u1 := Rng.float rng
  done;
  let u2 = Rng.float rng in
  mu +. (sigma *. sqrt (-2. *. log !u1) *. cos (2. *. Float.pi *. u2))

let poisson rng ~mean =
  if mean < 0. then invalid_arg "Dist.poisson: mean must be >= 0";
  if mean = 0. then 0
  else if mean > 500. then
    (* Normal approximation with continuity correction; exact sampling
       would draw O(mean) uniforms. *)
    let x = normal rng ~mu:mean ~sigma:(sqrt mean) in
    max 0 (int_of_float (Float.round x))
  else
    let limit = exp (-.mean) in
    let rec count k prod =
      let prod = prod *. Rng.float rng in
      if prod <= limit then k else count (k + 1) prod
    in
    count 0 1.

let bernoulli rng ~p =
  if p >= 1. then true else if p <= 0. then false else Rng.float rng < p

type zipf = { cdf : float array; pmf : float array }

let zipf ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf: n must be > 0";
  if s < 0. then invalid_arg "Dist.zipf: s must be >= 0";
  let pmf = Array.init n (fun k -> 1. /. Float.pow (float_of_int (k + 1)) s) in
  let total = Array.fold_left ( +. ) 0. pmf in
  let acc = ref 0. in
  let cdf =
    Array.map
      (fun w ->
        let w = w /. total in
        acc := !acc +. w;
        !acc)
      pmf
  in
  (* Close the CDF exactly despite float rounding. *)
  cdf.(n - 1) <- 1.;
  { cdf; pmf = Array.map (fun w -> w /. total) pmf }

let zipf_sample z rng =
  let u = Rng.float rng in
  (* Binary search for the first index with cdf >= u. *)
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let zipf_pmf z k = z.pmf.(k)

type categorical = zipf

let categorical ~weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Dist.categorical: empty weights";
  Array.iter
    (fun w -> if w < 0. then invalid_arg "Dist.categorical: negative weight")
    weights;
  let total = Array.fold_left ( +. ) 0. weights in
  if not (total > 0.) then invalid_arg "Dist.categorical: all weights zero";
  let acc = ref 0. in
  let cdf =
    Array.map
      (fun w ->
        acc := !acc +. (w /. total);
        !acc)
      weights
  in
  cdf.(n - 1) <- 1.;
  { cdf; pmf = Array.map (fun w -> w /. total) weights }

let categorical_sample = zipf_sample
