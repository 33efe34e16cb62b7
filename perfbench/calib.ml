(* A fixed reference kernel that shares no code with the simulator: it
   builds a balanced-tree map of 100k random keys, each bound to a short
   list.  Like the simulator, it allocates small blocks, chases pointers
   and keeps the minor and major collectors busy.  Its host time says how
   fast the shared host runs at the moment; README.md, "Noise", says how
   the benchmark uses it. *)

module Int_map = Map.Make (Int)

(* The kernel's host time, in seconds, that the calibrated metrics are
   scaled to. *)
let reference_s = 0.1

let inserts = 100_000

let kernel () =
  let rng = Random.State.make [| 3 |] in
  let m = ref Int_map.empty in
  for _ = 1 to inserts do
    let k = Random.State.bits rng in
    m := Int_map.add k [ k; k ] !m
  done;
  Int_map.cardinal !m

(* Host seconds of one kernel call, after a full collection. *)
let measure () =
  Gc.full_major ();
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (kernel ()));
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9
