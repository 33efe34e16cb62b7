(* Tests for the deterministic swarm-testing fuzzer: generator
   validity and purity, job-count-independent verdicts, standalone
   seed replay, and — the harness's own acceptance test — that a
   deliberately planted invariant bug is caught and shrunk to a small
   repro. *)

module Fuzz = Cup_sim.Fuzz
module Scenario = Cup_sim.Scenario
module Runner = Cup_sim.Runner
module Trace = Cup_sim.Trace
module Audit = Cup_obs.Audit
module Fuzz_oracle = Cup_obs.Fuzz_oracle
module Time = Cup_dess.Time
module Pool = Cup_parallel.Pool

(* {1 Generator} *)

let test_generator_validity () =
  for seed = 0 to 299 do
    let cfg = Fuzz.scenario_of_seed seed in
    match Scenario.validate cfg with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "seed %d generates invalid scenario: %s" seed msg
  done

let test_generator_purity () =
  List.iter
    (fun seed ->
      let a = Fuzz.scenario_of_seed seed and b = Fuzz.scenario_of_seed seed in
      if a <> b then Alcotest.failf "seed %d not pure" seed)
    [ 0; 1; 17; 1000; 123_456 ]

(* Swarm coverage: over a few hundred seeds, every fault axis must
   appear both present and absent, and some scenario must combine
   three or more axes — the combinations are where the bugs live. *)
let test_generator_covers_axes () =
  let crash = ref 0 and loss = ref 0 and part = ref 0 in
  let reord = ref 0 and dup = ref 0 and multi = ref 0 in
  let n = 300 in
  for seed = 0 to n - 1 do
    let cfg = Fuzz.scenario_of_seed seed in
    let axes =
      List.length
        (List.filter Fun.id
           [
             cfg.crashes <> None;
             cfg.loss <> None;
             cfg.partition <> None;
             cfg.reorder <> None;
             cfg.duplication <> None;
           ])
    in
    if cfg.crashes <> None then incr crash;
    if cfg.loss <> None then incr loss;
    if cfg.partition <> None then incr part;
    if cfg.reorder <> None then incr reord;
    if cfg.duplication <> None then incr dup;
    if axes >= 3 then incr multi
  done;
  let check name c =
    if !c = 0 || !c = n then
      Alcotest.failf "axis %s never varies (%d/%d)" name !c n
  in
  check "crashes" crash;
  check "loss" loss;
  check "partition" part;
  check "reorder" reord;
  check "duplication" dup;
  if !multi = 0 then Alcotest.fail "no scenario combines 3+ fault axes"

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_repro_command_shape () =
  let cfg = Fuzz.scenario_of_seed 42 in
  let cmd = Fuzz.repro_command cfg in
  List.iter
    (fun needle ->
      if not (contains ~needle cmd) then
        Alcotest.failf "repro %S lacks %S" cmd needle)
    [ "cup run"; "--seed 42"; "--nodes"; "--audit" ]

(* Generator stability: the regress corpus pins seeds, not scenarios,
   so a generator draw added, dropped or reordered would silently
   re-map every pinned seed to a different scenario.  These are the
   corpus seeds' scenarios as repro commands. *)
let pinned_repros =
  [
    ( 46,
      "cup run --seed 46 --nodes 21 --keys 1 --rate 2.10581 --duration 480\
      \ --lifetime 300 --replicas 2 --policy log:2 --overlay can\
      \ --crash-rate 0.196031 --crash-recover 29.2147 --loss-rate 0.0626883\
      \ --loss-jitter 0.656962 --partition 0.252262 --partition-start 5.31689\
      \ --partition-duration 88.4578 --partition-symmetric\
      \ --reorder-rate 0.478138 --reorder-spread 2.6182\
      \ --duplicate-rate 0.124639 --audit" );
    ( 58,
      "cup run --seed 58 --nodes 49 --keys 1 --rate 3.98542 --duration 120\
      \ --lifetime 300 --replicas 3 --policy push-level:2 --overlay can\
      \ --zipf 1.15376 --crash-rate 0.0709281\
      \ --crash-recover 27.0131 --loss-rate 0.283615 --loss-jitter 0.457528\
      \ --partition 0.190088 --partition-start 25.5542\
      \ --partition-duration 30.5353 --reorder-rate 0.38035\
      \ --reorder-spread 4.972 --duplicate-rate 0.191993 --audit" );
    ( 6,
      "cup run --seed 6 --nodes 45 --keys 1 --rate 2.58831 --duration 480\
      \ --lifetime 60 --replicas 1 --policy push-level:2 --overlay can-grid\
      \ --crash-rate 0.028263 --crash-recover 49.5235 --loss-rate 0.0985802\
      \ --loss-jitter 0.742531 --partition 0.172923 --partition-start 183.883\
      \ --partition-duration 122.488 --reorder-rate 0.193526\
      \ --reorder-spread 6.92134 --audit" );
    ( 2,
      "cup run --seed 2 --nodes 13 --keys 4 --rate 53.1823 --duration 120\
      \ --lifetime 60 --replicas 2 --policy linear:1 --overlay chord\
      \ --zipf 0.733483 --partition 0.283957\
      \ --partition-start 38.5313 --partition-duration 40.3088\
      \ --partition-symmetric --reorder-rate 0.478653 --reorder-spread 1.4092\
      \ --audit" );
    ( 13,
      "cup run --seed 13 --nodes 70 --keys 3 --rate 3.20331 --duration 120\
      \ --lifetime 60 --replicas 3 --policy all-out --overlay pastry\
      \ --zipf 0.968731 --crash-rate 0.0101396\
      \ --crash-recover 31.3657 --partition 0.12572 --partition-start 27.0241\
      \ --partition-duration 33.7839 --partition-symmetric\
      \ --reorder-rate 0.129715 --reorder-spread 2.99052\
      \ --duplicate-rate 0.24867 --audit" );
    ( 61,
      "cup run --seed 61 --nodes 56 --keys 2 --rate 49.414 --duration 120\
      \ --lifetime 300 --replicas 2 --policy all-out --overlay chord\
      \ --zipf 1.13223 --loss-rate 0.18513 --loss-jitter 0.769055\
      \ --partition 0.2489 --partition-start 53.4992\
      \ --partition-duration 11.1181 --partition-symmetric\
      \ --reorder-rate 0.55573 --reorder-spread 3.00192\
      \ --duplicate-rate 0.0764455 --audit" );
    ( 101,
      "cup run --seed 101 --nodes 4 --keys 4 --rate 1.59095 --duration 240\
      \ --lifetime 120 --replicas 2 --policy log:2 --overlay can\
      \ --zipf 1.12615 --crash-rate 0.188559\
      \ --crash-recover 7.93344 --duplicate-rate 0.0686776 --audit" );
    ( 33,
      "cup run --seed 33 --nodes 30 --keys 1 --rate 1.04335 --duration 240\
      \ --lifetime 300 --replicas 1 --policy all-out --overlay can-grid\
      \ --crash-rate 0.101703 --crash-recover 50.5248\
      \ --loss-rate 0.104165 --loss-jitter 0.527501 --reorder-rate 0.523872\
      \ --reorder-spread 3.92996 --duplicate-rate 0.210055 --audit" );
    ( 36,
      "cup run --seed 36 --nodes 73 --keys 2 --rate 58.5771 --duration 120\
      \ --lifetime 300 --replicas 2 --policy all-out --overlay can\
      \ --zipf 1.04854 --crash-rate 0.165223 --crash-recover 44.454\
      \ --partition 0.240234 --partition-start 46.1734\
      \ --partition-duration 15.0205 --reorder-rate 0.118667\
      \ --reorder-spread 4.44221 --audit" );
    ( 267,
      "cup run --seed 267 --nodes 54 --keys 4 --rate 2.47521 --duration 480\
      \ --lifetime 120 --replicas 3 --policy all-out --overlay can\
      \ --crash-rate 0.128104 --crash-recover 10.746 --audit" );
    ( 580,
      "cup run --seed 580 --nodes 32 --keys 1 --rate 53.7799 --duration 120\
      \ --lifetime 120 --replicas 1 --policy all-out --overlay can-grid\
      \ --zipf 0.698478 --crash-rate 0.141676 --crash-recover 56.2223\
      \ --partition 0.498149 --partition-start 32.5109\
      \ --partition-duration 56.7308 --reorder-rate 0.104261\
      \ --reorder-spread 2.35699 --audit" );
    ( 1827,
      "cup run --seed 1827 --nodes 38 --keys 2 --rate 3.8865 --duration 480\
      \ --lifetime 300 --replicas 2 --policy linear:1 --overlay can\
      \ --zipf 0.950784 --crash-rate 0.191741\
      \ --crash-recover 56.199 --loss-rate 0.0607742 --loss-jitter 0.326073\
      \ --duplicate-rate 0.204677 --audit" );
  ]

let test_generator_stability () =
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d" seed)
        expected
        (Fuzz.repro_command (Fuzz.scenario_of_seed seed)))
    pinned_repros

(* {1 Determinism} *)

(* The acceptance bar for the sweep driver: pooled and sequential
   sweeps produce equal summaries — same verdicts, same event counts,
   same (empty) failure lists — because Pool.map merges in input
   order and the oracle is a pure function of the scenario.  The
   [timings] field is host wall-clock, explicitly outside the
   deterministic verdict, so it is compared by shape (seed order,
   non-negative) rather than value. *)
let check_timings label (s : Fuzz.summary) ~seed_start ~seeds =
  Alcotest.(check (list int))
    (label ^ ": timing seeds in order")
    (List.init seeds (fun i -> seed_start + i))
    (List.map fst s.timings);
  List.iter
    (fun (seed, ms) ->
      if ms < 0. then Alcotest.failf "%s: seed %d timed %.3f ms" label seed ms)
    s.timings

let test_jobs_determinism () =
  let seeds = 6 and seed_start = 100 in
  let sequential =
    Fuzz.run_seeds ~exec:Fuzz_oracle.execute ~seed_start ~seeds ()
  in
  let pooled =
    Pool.with_pool ~jobs:2 (fun pool ->
        Fuzz.run_seeds ~exec:Fuzz_oracle.execute ~pool ~seed_start ~seeds ())
  in
  let deterministic (s : Fuzz.summary) = { s with Fuzz.timings = [] } in
  if deterministic sequential <> deterministic pooled then
    Alcotest.fail "pooled summary differs from sequential";
  check_timings "sequential" sequential ~seed_start ~seeds;
  check_timings "pooled" pooled ~seed_start ~seeds

let test_standalone_replay () =
  let summary =
    Fuzz.run_seeds ~exec:Fuzz_oracle.execute ~seed_start:7 ~seeds:3 ()
  in
  Alcotest.(check int) "all pass" 3 summary.passed;
  (* replaying one seed standalone must reproduce its sweep verdict *)
  let replay = Fuzz_oracle.execute (Fuzz.scenario_of_seed 8) in
  match replay with
  | Fuzz.Pass _ -> ()
  | Fuzz.Fail f ->
      Alcotest.failf "standalone replay of seed 8 failed: [%s] %s" f.code
        f.detail

(* {1 Planted-bug detection and shrinking}

   The fuzzer is only trustworthy if it catches bugs we know are
   there.  This executor runs the real simulation but corrupts every
   5th delivered update's payload in the auditor's view — inflating
   each entry's expiry far into the future, the signature of a broken
   refresh clock or a missing freshness validation.  Every later
   honest delivery to that node then regresses the inflated
   high-water mark, which the audit must flag as a V2 violation, and
   the shrinker must cut the repro to a small node count while it
   keeps failing.  (Regressing expiries *downward* instead would not
   work here: replicas refresh exactly at expiry with origin-stamped
   entries, so the standing high-water at any arrival instant is
   roughly the arrival time itself and a stale-but-unexpired value
   below it does not exist.) *)

let corrupting_exec (cfg : Scenario.t) : Fuzz.verdict =
  match Scenario.validate cfg with
  | Error msg ->
      Fail { code = "GEN"; invariant = "scenario"; at = 0.; detail = msg }
  | Ok () -> (
      let live = Runner.Live.create cfg in
      let auditor = Audit.create ~counters:(Runner.Live.counters live) () in
      let count = ref 0 in
      Runner.Live.set_tracer live
        (Some
           (fun event ->
             let event =
               match event with
               | Trace.Update_delivered
                   {
                     at;
                     from_;
                     to_;
                     key;
                     kind;
                     level;
                     answering;
                     entries;
                     trace_id;
                     span_id;
                     parent_id;
                   } ->
                   incr count;
                   if !count mod 5 = 0 then
                     Trace.Update_delivered
                       {
                         at;
                         from_;
                         to_;
                         key;
                         kind;
                         level;
                         answering;
                         entries =
                           (* unexpired (so the expired-entry
                              exemption does not apply) and far above
                              any honest lifetime *)
                           List.map (fun (r, e) -> (r, e +. 1000.)) entries;
                         trace_id;
                         span_id;
                         parent_id;
                       }
                   else event
               | e -> e
             in
             Audit.observe auditor event));
      match
        let (_ : Runner.result) = Runner.Live.finish live in
        Audit.finish auditor
      with
      | () -> Fuzz.Pass { events = Audit.events_checked auditor }
      | exception Audit.Violation v ->
          Fail
            {
              code = v.code;
              invariant = v.invariant;
              at = v.at;
              detail = v.detail;
            })

(* Refresh-heavy, fault-free scenario: plenty of repeat deliveries to
   the same (node, key, replica), so the corruption is guaranteed to
   land on a non-first delivery. *)
let planted_cfg =
  {
    Scenario.default with
    seed = 5;
    nodes = 64;
    total_keys_override = Some 1;
    replica_lifetime = 60.;
    query_rate = 1.;
    query_duration = 300.;
  }

let test_planted_bug_caught () =
  match corrupting_exec planted_cfg with
  | Fail { code = "V2"; _ } -> ()
  | Fail f -> Alcotest.failf "wrong violation: [%s %s] %s" f.code f.invariant f.detail
  | Pass _ -> Alcotest.fail "planted freshness bug escaped the audit"

let test_planted_bug_shrinks () =
  match Fuzz.shrink ~exec:corrupting_exec planted_cfg with
  | None -> Alcotest.fail "shrink lost the failure"
  | Some (shrunk, fail) ->
      Alcotest.(check string) "still a freshness violation" "V2" fail.code;
      if shrunk.Scenario.nodes > 32 then
        Alcotest.failf "shrunk repro still has %d nodes" shrunk.Scenario.nodes;
      if shrunk.Scenario.query_duration >= planted_cfg.Scenario.query_duration
      then Alcotest.fail "shrink never shortened the schedule";
      (* the shrunk scenario must remain a valid, renderable repro *)
      (match Scenario.validate shrunk with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "shrunk scenario invalid: %s" msg);
      match corrupting_exec shrunk with
      | Fail _ -> ()
      | Pass _ -> Alcotest.fail "shrunk repro does not reproduce"

let () =
  Alcotest.run "cup_fuzz"
    [
      ( "generator",
        [
          Alcotest.test_case "300 seeds validate" `Quick
            test_generator_validity;
          Alcotest.test_case "purity" `Quick test_generator_purity;
          Alcotest.test_case "axis coverage" `Quick test_generator_covers_axes;
          Alcotest.test_case "repro command shape" `Quick
            test_repro_command_shape;
          Alcotest.test_case "corpus seeds keep their scenarios" `Quick
            test_generator_stability;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs-independent verdicts" `Slow
            test_jobs_determinism;
          Alcotest.test_case "standalone replay" `Slow test_standalone_replay;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "planted bug caught" `Slow test_planted_bug_caught;
          Alcotest.test_case "planted bug shrinks" `Slow
            test_planted_bug_shrinks;
        ] );
    ]
