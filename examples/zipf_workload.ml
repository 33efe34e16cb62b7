(* Zipf popularity: CUP adapts per key.

   The paper's evaluation exercises one key's CUP tree, but the
   protocol runs one instance of its bookkeeping per key.  This
   example runs a 64-key index under a Zipf(1.2) query distribution
   and shows how the second-chance policy behaves across the
   popularity spectrum: hot keys keep their subscriptions and serve
   queries from fresh caches; cold keys are cut off after their
   second dry update, costing almost nothing.

   Run with:  dune exec examples/zipf_workload.exe
*)

module Live = Cup_sim.Runner.Live
module Scenario = Cup_sim.Scenario
module Counters = Cup_metrics.Counters
module Net = Cup_overlay.Net
module Node_store = Cup_proto.Node_store

let () =
  Printf.printf "== Zipf(1.2) workload over 64 keys ==\n\n";
  let cfg =
    {
      Scenario.default with
      nodes = 256;
      total_keys_override = Some 64;
      key_dist = `Zipf 1.2;
      query_rate = 20.;
      query_duration = 1800.;
      drain = 300.;
      seed = 404;
    }
  in
  let live = Live.create cfg in
  (* run to the end of the query window, then inspect subscriptions
     before the drain lets them decay *)
  Live.run_until live (cfg.query_start +. cfg.query_duration);
  let net = Live.network live in
  let now = Cup_dess.Time.of_seconds (cfg.query_start +. cfg.query_duration) in
  let store = Live.store live in
  let subscription_stats rank =
    let key = Live.key_of_index live rank in
    let fresh = ref 0 and interested = ref 0 in
    List.iter
      (fun id ->
        if Node_store.fresh_entries store ~node:id ~now key <> [] then
          incr fresh;
        if Node_store.interested_neighbors store id key <> [] then
          incr interested)
      (Net.node_ids net);
    (!fresh, !interested)
  in
  Printf.printf "%-10s | %-18s | %s\n" "key rank" "nodes caching fresh"
    "nodes with interested children";
  Printf.printf "%s\n" (String.make 62 '-');
  List.iter
    (fun rank ->
      let fresh, interested = subscription_stats rank in
      Printf.printf "%-10d | %-18d | %d\n" rank fresh interested)
    [ 0; 1; 3; 7; 15; 31; 63 ];
  let result = Live.finish live in
  Printf.printf
    "\noverall: %d queries, %d hits (%.0f%%), %d misses, total cost %d hops\n"
    (Counters.local_queries result.counters)
    (Counters.hits result.counters)
    (100.
    *. float_of_int (Counters.hits result.counters)
    /. float_of_int (max 1 (Counters.local_queries result.counters)))
    (Counters.misses result.counters)
    (Counters.total_cost result.counters);
  Printf.printf
    "the head of the distribution stays subscribed across the network;\n\
     the tail is cut off by second-chance after two dry refreshes.\n"
