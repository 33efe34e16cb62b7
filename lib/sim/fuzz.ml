(* Swarm-testing fuzzer: seed -> scenario -> audited run -> verdict.

   Everything here is a pure function of the fuzz seed.  The scenario
   generator draws from a dedicated substream of [Rng.create ~seed], so
   [cup fuzz --seed N] rebuilds byte-for-byte the scenario that seed N
   produced inside any larger sweep, and the executor (injected as
   [exec] — the fuzzer itself cannot depend on the observation layer)
   is a pure function of the scenario.  Fanning seeds over
   {!Cup_parallel.Pool.map} therefore returns verdicts in seed order
   regardless of job count.

   Swarm testing (Groce et al., ISSTA 2012): rather than exercising
   every fault axis in every run, each seed tosses an independent coin
   per axis, so the corpus covers axis {e combinations} — the bugs that
   hide in interactions (a partition closing while reordered updates
   are still in flight) get dedicated runs instead of being masked by
   always-on noise. *)

module Rng = Cup_prng.Rng

type fail = { code : string; invariant : string; at : float; detail : string }

type verdict = Pass of { events : int } | Fail of fail

type failure = {
  seed : int;
  scenario : Scenario.t;
  fail : fail;
  shrunk : (Scenario.t * fail) option;
}

type summary = {
  seeds_run : int;
  passed : int;
  total_events : int;
  failures : failure list;
  timings : (int * float) list;
}

(* {1 Scenario generation} *)

let overlays =
  [|
    Cup_overlay.Net.Can `Random;
    Cup_overlay.Net.Can `Grid;
    Cup_overlay.Net.Chord;
    Cup_overlay.Net.Pastry;
  |]

let policies =
  [|
    Cup_proto.Policy.Standard_caching;
    Cup_proto.Policy.All_out;
    Cup_proto.Policy.second_chance;
    Cup_proto.Policy.Push_level 2;
    Cup_proto.Policy.Linear 1.;
    Cup_proto.Policy.Logarithmic 2.;
  |]

let scenario_of_seed seed =
  let g = Rng.substream (Rng.create ~seed) "fuzz-gen" in
  let nodes = 4 + Rng.int g 93 in
  let overlay = Rng.choice g overlays in
  let keys = 1 + Rng.int g 4 in
  let replicas = 1 + Rng.int g 3 in
  let lifetime = Rng.choice g [| 60.; 120.; 300. |] in
  let policy = Rng.choice g policies in
  (* A flash crowd compresses the query load into a short, hot window
     — high rate, Zipf-skewed keys — instead of the usual trickle. *)
  let flash = Rng.float g < 0.15 in
  let duration =
    if flash then 120. else Rng.choice g [| 120.; 240.; 480. |]
  in
  let rate =
    if flash then Rng.float_range g 20. 60. else Rng.float_range g 0.3 4.
  in
  let key_dist =
    if flash || Rng.float g < 0.3 then `Zipf (Rng.float_range g 0.6 1.2)
    else `Uniform
  in
  (* Two retired coins: the first once chose the event queue (the
     default, the heap or the calendar queue), the second the
     protocol-state layout.  Drawing and discarding them keeps every
     later draw, and so every pinned seed's scenario, where it was. *)
  let (_ : int) = Rng.choice g [| 0; 1; 2 |] in
  let (_ : float) = Rng.float g in
  let crashes =
    if Rng.float g < 0.5 then
      Some
        {
          Scenario.crash_rate = Rng.float_range g 0.01 0.2;
          recover_after = Rng.float_range g 5. 60.;
          warmup = 0.;
        }
    else None
  in
  let loss =
    if Rng.float g < 0.5 then
      Some
        {
          Scenario.drop = Rng.float_range g 0.05 0.4;
          jitter = Rng.float_range g 0. 1.;
        }
    else None
  in
  let partition =
    if Rng.float g < 0.5 then
      Some
        {
          Scenario.fraction = Rng.float_range g 0.1 0.5;
          p_start = Rng.float_range g 0. (duration /. 2.);
          p_duration = Rng.float_range g 10. (Float.max 20. (duration /. 2.));
          symmetric = Rng.bool g;
        }
    else None
  in
  let reorder =
    if Rng.float g < 0.5 then
      Some
        {
          Scenario.r_probability = Rng.float_range g 0.1 0.8;
          r_spread = Rng.float_range g 1. 8.;
        }
    else None
  in
  let duplication =
    if Rng.float g < 0.5 then
      Some { Scenario.d_probability = Rng.float_range g 0.05 0.3 }
    else None
  in
  Scenario.with_policy
    {
      Scenario.default with
      seed;
      nodes;
      overlay;
      total_keys_override = Some keys;
      replicas_per_key = replicas;
      replica_lifetime = lifetime;
      query_rate = rate;
      query_duration = duration;
      key_dist;
      crashes;
      loss;
      partition;
      reorder;
      duplication;
    }
    policy

(* {1 Repro rendering}

   Every generated (and shrunk) scenario stays inside the subset of
   {!Scenario.t} expressible as [cup run] flags, so a failure report
   can hand the user a command instead of an OCaml value. *)

let policy_flag (p : Cup_proto.Policy.t) =
  match p with
  | Standard_caching -> "standard"
  | All_out -> "all-out"
  | Log_based 2 -> "second-chance"
  | Log_based n -> Printf.sprintf "log-based:%d" n
  | Push_level p -> Printf.sprintf "push-level:%d" p
  | Linear a -> Printf.sprintf "linear:%g" a
  | Logarithmic a -> Printf.sprintf "log:%g" a

let overlay_flag = function
  | Cup_overlay.Net.Can `Random -> "can"
  | Cup_overlay.Net.Can `Grid -> "can-grid"
  | Cup_overlay.Net.Chord -> "chord"
  | Cup_overlay.Net.Pastry -> "pastry"

let repro_command (cfg : Scenario.t) =
  let b = Buffer.create 128 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  addf "cup run --seed %d --nodes %d --keys %d" cfg.seed cfg.nodes
    (Scenario.total_keys cfg);
  addf " --rate %g --duration %g --lifetime %g --replicas %d" cfg.query_rate
    cfg.query_duration cfg.replica_lifetime cfg.replicas_per_key;
  addf " --policy %s --overlay %s"
    (policy_flag cfg.node_config.policy)
    (overlay_flag cfg.overlay);
  (match cfg.key_dist with
  | `Uniform -> ()
  | `Zipf a -> addf " --zipf %g" a);
  (match cfg.crashes with
  | None -> ()
  | Some { crash_rate; recover_after; _ } ->
      addf " --crash-rate %g --crash-recover %g" crash_rate recover_after);
  (match cfg.loss with
  | None -> ()
  | Some { drop; jitter } ->
      addf " --loss-rate %g" drop;
      if jitter > 0. then addf " --loss-jitter %g" jitter);
  (match cfg.partition with
  | None -> ()
  | Some { fraction; p_start; p_duration; symmetric } ->
      addf " --partition %g --partition-start %g --partition-duration %g"
        fraction p_start p_duration;
      if symmetric then addf " --partition-symmetric");
  (match cfg.reorder with
  | None -> ()
  | Some { r_probability; r_spread } ->
      addf " --reorder-rate %g --reorder-spread %g" r_probability r_spread);
  (match cfg.duplication with
  | None -> ()
  | Some { d_probability } -> addf " --duplicate-rate %g" d_probability);
  addf " --audit";
  Buffer.contents b

(* {1 Shrinking}

   Greedy delta-debugging over a fixed candidate order: try each
   simplification, keep the first that still fails, restart from the
   top.  Each acceptance strictly shrinks the scenario (fewer nodes,
   shorter schedule, one fault axis fewer), so termination does not
   need the safety cap — it is there for belt and braces.  The
   executor is deterministic, so no candidate needs re-running. *)

let shrink_candidates (cfg : Scenario.t) =
  let cand l f = if l then [ f cfg ] else [] in
  List.concat
    [
      cand (cfg.nodes >= 8) (fun c -> { c with Scenario.nodes = c.nodes / 2 });
      cand
        (cfg.query_duration > 60.)
        (fun c -> { c with Scenario.query_duration = c.query_duration /. 2. });
      cand (cfg.crashes <> None) (fun c -> { c with Scenario.crashes = None });
      cand (cfg.loss <> None) (fun c -> { c with Scenario.loss = None });
      cand (cfg.partition <> None) (fun c ->
          { c with Scenario.partition = None });
      cand (cfg.reorder <> None) (fun c -> { c with Scenario.reorder = None });
      cand (cfg.duplication <> None) (fun c ->
          { c with Scenario.duplication = None });
      cand
        (Scenario.total_keys cfg > 1)
        (fun c -> { c with Scenario.total_keys_override = Some 1 });
      cand (cfg.replicas_per_key > 1) (fun c ->
          { c with Scenario.replicas_per_key = 1 });
      cand
        (cfg.key_dist <> `Uniform)
        (fun c -> { c with Scenario.key_dist = `Uniform });
      cand (cfg.query_rate > 2.) (fun c ->
          { c with Scenario.query_rate = c.query_rate /. 2. });
    ]

let shrink ~exec (cfg : Scenario.t) =
  match exec cfg with
  | Pass _ -> None
  | Fail fail ->
      let best = ref (cfg, fail) in
      let budget = ref 200 in
      let rec pass () =
        decr budget;
        if !budget > 0 then
          let cfg, _ = !best in
          let accepted =
            List.exists
              (fun candidate ->
                match Scenario.validate candidate with
                | Error _ -> false
                | Ok () -> (
                    match exec candidate with
                    | Pass _ -> false
                    | Fail f ->
                        best := (candidate, f);
                        true))
              (shrink_candidates cfg)
          in
          if accepted then pass ()
      in
      pass ();
      Some !best

(* {1 Driving a seed range} *)

let run_seeds ~exec ?pool ?(shrink_failures = true) ~seed_start ~seeds () =
  if seeds < 1 then invalid_arg "Fuzz.run_seeds: seeds must be >= 1";
  let eval seed =
    let scenario = scenario_of_seed seed in
    let t0 = Unix.gettimeofday () in
    let verdict = exec scenario in
    let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    (seed, scenario, verdict, ms)
  in
  let seed_list = List.init seeds (fun i -> seed_start + i) in
  let outcomes =
    match pool with
    | Some pool -> Cup_parallel.Pool.map pool eval seed_list
    | None -> List.map eval seed_list
  in
  let passed = ref 0 and total_events = ref 0 and failures = ref [] in
  List.iter
    (fun (seed, scenario, verdict, _ms) ->
      match verdict with
      | Pass { events } ->
          incr passed;
          total_events := !total_events + events
      | Fail fail ->
          (* Shrinks run sequentially after the sweep, in seed order:
             they re-execute scenarios, and racing them against the
             pool would interleave nondeterministically with nothing
             gained — failures are rare. *)
          let shrunk = if shrink_failures then shrink ~exec scenario else None in
          failures := { seed; scenario; fail; shrunk } :: !failures)
    outcomes;
  {
    seeds_run = seeds;
    passed = !passed;
    total_events = !total_events;
    failures = List.rev !failures;
    timings = List.map (fun (seed, _, _, ms) -> (seed, ms)) outcomes;
  }
