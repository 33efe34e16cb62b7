(* The four benchmark workloads.  Each maps a seed to the simulator's
   input; nothing else about a run depends on the seed.  README.md says
   why each one was chosen and which layers it loads. *)

open Cup_sim

type shape = Runner_shape of Scenario.t | Scale_shape of Scale.config

type t = {
  name : string;
  observed : bool;
      (* attach the auditor, a binary .ctrace sink and top-64 attribution,
         then read the trace back through the streaming analyzer *)
  shape : seed:int -> shape;
}

(* The paper's single-key experiment (Section 3) at its largest size:
   most host time goes into building the CAN overlay. *)
let paper_can4k =
  {
    name = "paper-can4k";
    observed = false;
    shape =
      (fun ~seed ->
        Runner_shape
          {
            Scenario.default with
            seed;
            nodes = 4096;
            total_keys_override = Some 1;
            query_rate = 100.;
          });
  }

(* Many keys, skewed popularity: protocol handlers, the next-hop cache
   and the event loop do the work; the overlay build is negligible. *)
let zipf_1k =
  {
    name = "zipf-1k";
    observed = false;
    shape =
      (fun ~seed ->
        Runner_shape
          {
            Scenario.default with
            seed;
            nodes = 1024;
            total_keys_override = Some 1024;
            key_dist = `Zipf 0.9;
            query_rate = 200.;
            query_duration = 75.;
            drain = 30.;
          });
  }

(* Crashes, loss and duplication with every observer attached: the
   repair paths, a deep event queue, trace encode/write and analysis. *)
let faults_audited =
  {
    name = "faults-audited";
    observed = true;
    shape =
      (fun ~seed ->
        Runner_shape
          {
            Scenario.default with
            seed;
            nodes = 1024;
            total_keys_override = Some 128;
            key_dist = `Zipf 0.9;
            query_rate = 50.;
            query_duration = 100.;
            crashes =
              Some
                { Scenario.crash_rate = 0.05; recover_after = 30.; warmup = 0. };
            loss = Some { Scenario.drop = 0.02; jitter = 0.5 };
            duplication = Some { Scenario.d_probability = 0.01 };
          });
  }

(* The only path through Scale, Window_sync and the sharded Node_store.
   Timed on one domain: two domains on a shared two-core host wait on
   each other at every window barrier, and the middle half of ten runs
   spread over more than half the median.  The traced run pairs it with
   two shards, which goes through Pool; the output is the same for any
   shard count. *)
let ring_1m =
  {
    name = "ring-1m";
    observed = false;
    shape =
      (fun ~seed ->
        Scale_shape
          {
            Scale.default with
            seed;
            nodes = 1_000_000;
            keys = 8192;
            zipf = 0.9;
            shards = 1;
            rate = 4000.;
          });
  }

let all = [ paper_can4k; zipf_1k; faults_audited; ring_1m ]
let find name = List.find_opt (fun w -> w.name = name) all
