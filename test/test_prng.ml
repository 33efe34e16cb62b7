(* Tests for Cup_prng: determinism, ranges, and distribution moments. *)

module Splitmix = Cup_prng.Splitmix
module Rng = Cup_prng.Rng
module Dist = Cup_prng.Dist

let check_float = Alcotest.(check (float 1e-9))

(* {1 Splitmix} *)

let test_splitmix_deterministic () =
  let a = Splitmix.create 42L and b = Splitmix.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64)
      "same seed, same stream" (Splitmix.next_int64 a) (Splitmix.next_int64 b)
  done

let test_splitmix_seed_sensitivity () =
  let a = Splitmix.create 1L and b = Splitmix.create 2L in
  Alcotest.(check bool)
    "different seeds diverge" true
    (Splitmix.next_int64 a <> Splitmix.next_int64 b)

let test_splitmix_copy_independent () =
  let a = Splitmix.create 7L in
  ignore (Splitmix.next_int64 a);
  let b = Splitmix.copy a in
  let xa = Splitmix.next_int64 a in
  let xb = Splitmix.next_int64 b in
  Alcotest.(check int64) "copy resumes at same point" xa xb;
  ignore (Splitmix.next_int64 a);
  (* b is now one draw behind; advancing b must reproduce a's draw *)
  Alcotest.(check bool) "copies advance independently" true
    (Splitmix.next_int64 b <> Splitmix.next_int64 b)

let test_splitmix_float_range () =
  let g = Splitmix.create 9L in
  for _ = 1 to 10_000 do
    let f = Splitmix.next_float g in
    if f < 0. || f >= 1. then Alcotest.failf "float out of range: %f" f
  done

let test_splitmix_int_rejects_bad_bound () =
  let g = Splitmix.create 3L in
  Alcotest.check_raises "zero bound" (Invalid_argument
    "Splitmix.next_int: bound must be positive") (fun () ->
      ignore (Splitmix.next_int g 0))

let test_splitmix_split_diverges () =
  let a = Splitmix.create 11L in
  let b = Splitmix.split a in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Splitmix.next_int64 a = Splitmix.next_int64 b then incr same
  done;
  Alcotest.(check int) "split streams do not collide" 0 !same

let test_mix_is_stateless_hash () =
  Alcotest.(check int64) "mix deterministic" (Splitmix.mix 123L)
    (Splitmix.mix 123L);
  Alcotest.(check bool) "mix spreads" true
    (Splitmix.mix 1L <> Splitmix.mix 2L)

(* Vigna's splitmix64.c from state 0. *)
let test_splitmix_known_answers () =
  let g = Splitmix.create 0L in
  List.iter
    (fun want -> Alcotest.(check int64) "splitmix64.c" want (Splitmix.next_int64 g))
    [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL ]

(* The generator and samplers as they were written with a boxed
   [int64] state and local closures.  Every stream must match this
   copy draw for draw, or every pinned run would change. *)
module Reference = struct
  type gen = { mutable state : int64 }

  let mix z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let next_int64 g =
    g.state <- Int64.add g.state 0x9E3779B97F4A7C15L;
    mix g.state

  let next_float g =
    Int64.to_float (Int64.shift_right_logical (next_int64 g) 11) *. 0x1p-53

  let next_int g bound =
    let bound64 = Int64.of_int bound in
    let rec draw () =
      let bits = Int64.shift_right_logical (next_int64 g) 1 in
      let value = Int64.rem bits bound64 in
      if Int64.(sub (add bits (sub bound64 1L)) value) < 0L then draw ()
      else Int64.to_int value
    in
    draw ()

  let split g =
    let seed = next_int64 g in
    { state = mix (Int64.logxor seed 0x5851F42D4C957F2DL) }

  let substream g name =
    let h = ref 0xCBF29CE484222325L in
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h 0x100000001B3L)
      name;
    let base = next_int64 { state = g.state } in
    { state = mix (Int64.logxor base !h) }

  let exponential g ~rate =
    let rec positive_uniform () =
      let u = next_float g in
      if u > 0. then u else positive_uniform ()
    in
    -.log (positive_uniform ()) /. rate

  let normal g ~mu ~sigma =
    let rec draw () =
      let u1 = next_float g in
      if u1 <= 0. then draw ()
      else
        let u2 = next_float g in
        mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))
    in
    draw ()

  let zipf_cdf ~n ~s =
    let pmf = Array.init n (fun k -> 1. /. Float.pow (float_of_int (k + 1)) s) in
    let total = Array.fold_left ( +. ) 0. pmf in
    let acc = ref 0. in
    let cdf =
      Array.map
        (fun w ->
          acc := !acc +. (w /. total);
          !acc)
        pmf
    in
    cdf.(n - 1) <- 1.;
    cdf

  let zipf_sample cdf g =
    let u = next_float g in
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
end

(* {1 Rng} *)

let test_rng_substream_deterministic () =
  let a = Rng.substream (Rng.create ~seed:5) "queries" in
  let b = Rng.substream (Rng.create ~seed:5) "queries" in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same name, same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_substream_names_diverge () =
  let root = Rng.create ~seed:5 in
  let a = Rng.substream root "queries" and b = Rng.substream root "replicas" in
  Alcotest.(check bool) "names decorrelate" true (Rng.int64 a <> Rng.int64 b)

let test_rng_float_range_bounds () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Rng.float_range rng 2. 5. in
    if x < 2. || x >= 5. then Alcotest.failf "float_range out of bounds: %f" x
  done;
  Alcotest.check_raises "lo >= hi rejected"
    (Invalid_argument "Rng.float_range: lo must be < hi") (fun () ->
      ignore (Rng.float_range rng 5. 5.))

let test_rng_choice_and_empty () =
  let rng = Rng.create ~seed:2 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let x = Rng.choice rng arr in
    Alcotest.(check bool) "choice in array" true (Array.mem x arr)
  done;
  Alcotest.check_raises "empty array"
    (Invalid_argument "Rng.choice: empty array") (fun () ->
      ignore (Rng.choice rng [||]))

let test_rng_sample_without_replacement () =
  let rng = Rng.create ~seed:3 in
  let s = Rng.sample_without_replacement rng 10 50 in
  Alcotest.(check int) "length" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then Alcotest.fail "duplicate sample"
  done;
  Array.iter
    (fun x ->
      if x < 0 || x >= 50 then Alcotest.failf "sample out of range: %d" x)
    s;
  let all = Rng.sample_without_replacement rng 50 50 in
  Alcotest.(check int) "k = n works" 50 (Array.length all);
  Alcotest.check_raises "k > n rejected"
    (Invalid_argument "Rng.sample_without_replacement") (fun () ->
      ignore (Rng.sample_without_replacement rng 51 50))

(* {1 Distributions} *)

let test_exponential_mean () =
  let rng = Rng.create ~seed:4 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Dist.exponential rng ~rate:2.
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.02 then
    Alcotest.failf "exponential mean off: %f (expected ~0.5)" mean

let test_exponential_positive () =
  let rng = Rng.create ~seed:41 in
  for _ = 1 to 1000 do
    if Dist.exponential rng ~rate:1000. <= 0. then
      Alcotest.fail "exponential must be > 0"
  done

let test_poisson_moments () =
  let rng = Rng.create ~seed:6 in
  let n = 20_000 and mean = 4.2 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Dist.poisson rng ~mean
  done;
  let m = float_of_int !sum /. float_of_int n in
  if Float.abs (m -. mean) > 0.1 then
    Alcotest.failf "poisson mean off: %f (expected ~%f)" m mean

let test_poisson_large_mean_normal_approx () =
  let rng = Rng.create ~seed:7 in
  let mean = 1000. in
  let x = Dist.poisson rng ~mean in
  (* 10 sigma corridor *)
  if Float.abs (float_of_int x -. mean) > 10. *. sqrt mean then
    Alcotest.failf "large-mean poisson implausible: %d" x

let test_poisson_zero () =
  let rng = Rng.create ~seed:8 in
  Alcotest.(check int) "mean 0 -> 0" 0 (Dist.poisson rng ~mean:0.)

let test_bernoulli_edges () =
  let rng = Rng.create ~seed:9 in
  Alcotest.(check bool) "p=1 true" true (Dist.bernoulli rng ~p:1.);
  Alcotest.(check bool) "p=0 false" false (Dist.bernoulli rng ~p:0.);
  let n = 10_000 and hits = ref 0 in
  for _ = 1 to n do
    if Dist.bernoulli rng ~p:0.3 then incr hits
  done;
  let f = float_of_int !hits /. float_of_int n in
  if Float.abs (f -. 0.3) > 0.02 then Alcotest.failf "bernoulli rate off: %f" f

let test_zipf_pmf_normalized () =
  let z = Dist.zipf ~n:100 ~s:1.1 in
  let total = ref 0. in
  for k = 0 to 99 do
    total := !total +. Dist.zipf_pmf z k
  done;
  check_float "pmf sums to 1" 1. !total

let test_zipf_monotone () =
  let z = Dist.zipf ~n:50 ~s:0.8 in
  for k = 1 to 49 do
    if Dist.zipf_pmf z k > Dist.zipf_pmf z (k - 1) then
      Alcotest.fail "zipf pmf must be nonincreasing"
  done

let test_zipf_skew () =
  let rng = Rng.create ~seed:10 in
  let z = Dist.zipf ~n:1000 ~s:1.0 in
  let top = ref 0 and n = 20_000 in
  for _ = 1 to n do
    if Dist.zipf_sample z rng = 0 then incr top
  done;
  (* rank 0 carries ~1/H(1000) ~ 13.4% of the mass *)
  let f = float_of_int !top /. float_of_int n in
  if f < 0.10 || f > 0.17 then Alcotest.failf "zipf skew off: %f" f

let test_zipf_degenerate_uniform () =
  let rng = Rng.create ~seed:11 in
  let z = Dist.zipf ~n:4 ~s:0. in
  check_float "s=0 is uniform" 0.25 (Dist.zipf_pmf z 3);
  let counts = Array.make 4 0 in
  for _ = 1 to 8000 do
    let k = Dist.zipf_sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c ->
      if abs (c - 2000) > 300 then Alcotest.failf "uniform sample off: %d" c)
    counts

let test_categorical () =
  let rng = Rng.create ~seed:12 in
  let c = Dist.categorical ~weights:[| 0.; 1.; 3. |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 10_000 do
    let k = Dist.categorical_sample c rng in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check int) "zero weight never sampled" 0 counts.(0);
  if abs (counts.(2) - (3 * counts.(1))) > 1000 then
    Alcotest.failf "categorical proportions off: %d vs %d" counts.(1)
      counts.(2);
  Alcotest.check_raises "all-zero rejected"
    (Invalid_argument "Dist.categorical: all weights zero") (fun () ->
      ignore (Dist.categorical ~weights:[| 0.; 0. |]));
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Dist.categorical: negative weight") (fun () ->
      ignore (Dist.categorical ~weights:[| 1.; -1. |]))

(* {1 Properties} *)

let prop_next_int_in_bounds =
  QCheck.Test.make ~count:1000 ~name:"next_int stays in [0, bound)"
    QCheck.(pair (int_bound 1_000_000) small_int)
    (fun (bound, seed) ->
      let bound = bound + 1 in
      let g = Splitmix.create (Int64.of_int seed) in
      let x = Splitmix.next_int g bound in
      0 <= x && x < bound)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~count:300 ~name:"shuffle preserves the multiset"
    QCheck.(pair (list small_int) small_int)
    (fun (l, seed) ->
      let rng = Rng.create ~seed in
      let arr = Array.of_list l in
      Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

let prop_zipf_sample_in_range =
  QCheck.Test.make ~count:500 ~name:"zipf sample in [0, n)"
    QCheck.(triple (int_range 1 200) (float_range 0. 3.) small_int)
    (fun (n, s, seed) ->
      let rng = Rng.create ~seed in
      let z = Dist.zipf ~n ~s in
      let k = Dist.zipf_sample z rng in
      0 <= k && k < n)

let prop_matches_reference =
  QCheck.Test.make ~count:500 ~name:"draws match the boxed reference"
    QCheck.(
      quad int
        (oneof [ int_range 1 1000; int_range 1 max_int ])
        (float_range 0.001 1000.)
        (pair (int_range 1 200) (float_range 0. 3.)))
    (fun (seed, bound, rate, (n, s)) ->
      let same = ref true in
      let agree b = if not b then same := false in
      let agree_float x y = agree (Int64.bits_of_float x = Int64.bits_of_float y) in
      let g = Splitmix.create (Int64.of_int seed)
      and rg = { Reference.state = Int64.of_int seed } in
      let rng = Rng.create ~seed and r = { Reference.state = Int64.of_int seed } in
      let z = Dist.zipf ~n ~s and cdf = Reference.zipf_cdf ~n ~s in
      for _ = 1 to 20 do
        agree (Splitmix.next_int64 g = Reference.next_int64 rg);
        agree (Splitmix.next_int g bound = Reference.next_int rg bound);
        agree_float (Splitmix.next_float g) (Reference.next_float rg);
        agree (Rng.int rng bound = Reference.next_int r bound);
        agree_float (Rng.float rng) (Reference.next_float r);
        agree_float (Dist.exponential rng ~rate) (Reference.exponential r ~rate);
        agree_float
          (Dist.normal rng ~mu:1. ~sigma:rate)
          (Reference.normal r ~mu:1. ~sigma:rate);
        agree (Dist.zipf_sample z rng = Reference.zipf_sample cdf r)
      done;
      let sub = Rng.substream rng "queries"
      and rsub = Reference.substream r "queries" in
      agree (Rng.int64 sub = Reference.next_int64 rsub);
      let child = Rng.split rng and rchild = Reference.split r in
      agree (Rng.int64 child = Reference.next_int64 rchild);
      agree (Rng.int64 rng = Reference.next_int64 r);
      let gchild = Splitmix.split g and rgchild = Reference.split rg in
      agree (Splitmix.next_int64 gchild = Reference.next_int64 rgchild);
      agree (Splitmix.next_int64 (Splitmix.copy g) = Reference.next_int64 rg);
      !same)

let () =
  Alcotest.run "cup_prng"
    [
      ( "splitmix",
        [
          Alcotest.test_case "known answers" `Quick test_splitmix_known_answers;
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick
            test_splitmix_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_splitmix_copy_independent;
          Alcotest.test_case "float range" `Quick test_splitmix_float_range;
          Alcotest.test_case "bad bound" `Quick
            test_splitmix_int_rejects_bad_bound;
          Alcotest.test_case "split diverges" `Quick
            test_splitmix_split_diverges;
          Alcotest.test_case "mix hash" `Quick test_mix_is_stateless_hash;
        ] );
      ( "rng",
        [
          Alcotest.test_case "substream deterministic" `Quick
            test_rng_substream_deterministic;
          Alcotest.test_case "substream names" `Quick
            test_rng_substream_names_diverge;
          Alcotest.test_case "float_range" `Quick test_rng_float_range_bounds;
          Alcotest.test_case "choice" `Quick test_rng_choice_and_empty;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_rng_sample_without_replacement;
        ] );
      ( "dist",
        [
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "exponential positive" `Quick
            test_exponential_positive;
          Alcotest.test_case "poisson moments" `Quick test_poisson_moments;
          Alcotest.test_case "poisson large mean" `Quick
            test_poisson_large_mean_normal_approx;
          Alcotest.test_case "poisson zero" `Quick test_poisson_zero;
          Alcotest.test_case "bernoulli" `Quick test_bernoulli_edges;
          Alcotest.test_case "zipf normalized" `Quick test_zipf_pmf_normalized;
          Alcotest.test_case "zipf monotone" `Quick test_zipf_monotone;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf s=0 uniform" `Quick
            test_zipf_degenerate_uniform;
          Alcotest.test_case "categorical" `Quick test_categorical;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_next_int_in_bounds;
            prop_shuffle_is_permutation;
            prop_zipf_sample_in_range;
            prop_matches_reference;
          ] );
    ]
