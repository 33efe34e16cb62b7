(* Fuzzer regression corpus.

   Each entry pins one fuzz seed whose generated scenario exercises a
   fault shape (or combination) that either once broke an invariant or
   covers a corner the sweep would only revisit by luck — the
   swarm-tested equivalents of "the bug harvest".  Every seed must
   pass the full oracle stack; a failure here is a protocol or
   accounting regression, and [cup fuzz --seed N] reproduces it
   standalone.

   Keep entries cheap: the corpus runs in every `dune runtest`. *)

module Fuzz = Cup_sim.Fuzz
module Fuzz_oracle = Cup_obs.Fuzz_oracle

let corpus =
  [
    (* interaction of all five fault axes, symmetric partition *)
    ("all-axes-symmetric", 46);
    (* all five axes with the asymmetric (one-way) partition shape *)
    ("all-axes-asymmetric", 58);
    (* asymmetric partition + crash + loss + reorder on the grid CAN *)
    ("asym-partition-grid", 6);
    (* flash crowd (Zipf, ~53 q/s) through a symmetric cut with
       reordering on Chord *)
    ("flash-crowd-partitioned-chord", 2);
    (* pastry with crash + symmetric cut + reorder + duplication *)
    ("pastry-crash-reorder-dup", 13);
    (* loss + cut + reorder + duplication under a flash crowd on
       Chord.  "flat-state" in this name and two below records a
       generator coin that once picked the protocol-state layout; the
       generator still draws it, so the seeds keep their scenarios. *)
    ("flat-state-flash-all-channel-faults", 61);
    (* minimum population: 4 nodes crashing while duplicating *)
    ("four-nodes-crash-dup", 101);
    (* crash + loss + reorder + duplication on the grid CAN *)
    ("flat-state-crash-loss-reorder-dup", 33);
    (* The first real bug harvest (2000-seed sweep, 14 failures, all
       V3 backlog): crash-rewired CAN interest graphs formed cycles,
       and all-out / uncapped policies re-forwarded no-news refreshes
       around them forever — one refresh wave amplified into an update
       storm (425 deliveries to a single (node, key) in ~2 simulated
       seconds on seed 36).  Fixed by the no-news forwarding guard in
       [Node_store.apply_update]; these four seeds pin the storm shapes
       that failed. *)
    ("update-storm-all-out-can-flash", 36);
    ("update-storm-all-out-can-multikey", 267);
    ("update-storm-all-out-grid", 580);
    ("update-storm-linear-can-flat", 1827);
  ]

let run_seed name seed () =
  let cfg = Fuzz.scenario_of_seed seed in
  match Fuzz_oracle.execute cfg with
  | Fuzz.Pass _ -> ()
  | Fuzz.Fail f ->
      Alcotest.failf "%s (seed %d): [%s %s] t=%.6g: %s" name seed f.code
        f.invariant f.at f.detail

let () =
  Alcotest.run "cup_regress_seeds"
    [
      ( "corpus",
        List.map
          (fun (name, seed) ->
            Alcotest.test_case
              (Printf.sprintf "%s (seed %d)" name seed)
              `Slow (run_seed name seed))
          corpus );
    ]
