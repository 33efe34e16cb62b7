(* Flash crowd: a key becomes suddenly hot.

   The paper motivates CUP with items that "become suddenly hot":
   bursts of queries for one item are coalesced into a single upstream
   query by the query channel, and updates keep the intermediate
   caches fresh so the crowd is absorbed near its sources.

   This example fires a burst of queries for one key from many nodes
   within a few hundred milliseconds, under CUP and under standard
   caching, and compares the work the network had to do.

   Run with:  dune exec examples/flash_crowd.exe
*)

module Live = Cup_sim.Runner.Live
module Scenario = Cup_sim.Scenario
module Counters = Cup_metrics.Counters
module Policy = Cup_proto.Policy

let burst_size = 200

let run_with policy =
  let cfg =
    Scenario.with_policy
      {
        Scenario.default with
        nodes = 256;
        total_keys_override = Some 1;
        query_rate = 0.01;
        (* nearly no background: the crowd hits cold caches *)
        query_duration = 900.;
        drain = 300.;
        seed = 77;
      }
      policy
  in
  let live = Live.create cfg in
  let key = Live.key_of_index live 0 in
  let rng = Cup_prng.Rng.create ~seed:123 in
  let ids = Array.of_list (Cup_overlay.Net.node_ids (Live.network live)) in
  (* Warm up, then the crowd arrives within ~0.2 seconds at t=600 —
     queries overlap in flight, so the query channels get to coalesce
     them. *)
  Live.run_until live 600.;
  for i = 0 to burst_size - 1 do
    Live.run_until live (600. +. (0.001 *. float_of_int i));
    Live.post_query live ~node:(Cup_prng.Rng.choice rng ids) ~key
  done;
  let result = Live.finish live in
  (result.counters, result.node_stats)

let () =
  Printf.printf "== Flash crowd: %d queries for one key in ~2 seconds ==\n\n"
    burst_size;
  let report label (c, (s : Cup_proto.Node_store.stats)) =
    Printf.printf
      "%-16s total cost %5d hops | misses %4d | avg miss latency %5.2f hops \
       | queries coalesced in-network: %d\n"
      label (Counters.total_cost c) (Counters.misses c)
      (Counters.avg_miss_latency_hops c)
      s.queries_coalesced
  in
  let cup = run_with Policy.second_chance in
  let std = run_with Policy.Standard_caching in
  report "CUP:" cup;
  report "standard:" std;
  let (ccup, scup), (cstd, _) = (cup, std) in
  Printf.printf
    "\nCUP coalesced %d of the crowd's queries in-network, cut the query \
     traffic %.1fx\n(%d vs %d query hops) and answered misses %.1fx \
     faster.\n"
    scup.queries_coalesced
    (float_of_int (Counters.query_hops cstd)
    /. float_of_int (max 1 (Counters.query_hops ccup)))
    (Counters.query_hops ccup) (Counters.query_hops cstd)
    (Counters.avg_miss_latency_hops cstd
    /. Float.max 0.01 (Counters.avg_miss_latency_hops ccup))
