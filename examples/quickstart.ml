(* Quickstart: a small CUP network, step by step.

   Builds a 64-node CAN, registers one key at its authority, posts a
   few queries by hand through the [Runner.Live] interface, and shows
   the protocol machinery working: the first query misses and travels
   to the authority, caches fill along the reverse path, a refresh
   keeps them fresh, and a later query hits locally.

   Run with:  dune exec examples/quickstart.exe
*)

module Live = Cup_sim.Runner.Live
module Scenario = Cup_sim.Scenario
module Counters = Cup_metrics.Counters

let () =
  Printf.printf "== CUP quickstart ==\n\n";
  (* A scenario with a tame background workload; we drive extra
     queries manually. *)
  let cfg =
    {
      Scenario.default with
      nodes = 64;
      total_keys_override = Some 1;
      query_rate = 0.5;
      query_duration = 1200.;
      drain = 300.;
      seed = 2024;
    }
  in
  let live = Live.create cfg in
  let topo = Live.network live in
  let key = Live.key_of_index live 0 in
  let authority = Live.authority_of live key in
  Printf.printf "network: %d nodes; key %s is owned by node %s\n"
    (Cup_overlay.Net.size topo)
    (Format.asprintf "%a" Cup_overlay.Key.pp key)
    (Format.asprintf "%a" Cup_overlay.Node_id.pp authority);

  (* Pick a querier far from the authority. *)
  let querier =
    let ids = Cup_overlay.Net.node_ids topo in
    let dist id =
      List.length (Cup_overlay.Route.hops_exn (Cup_overlay.Net.route topo ~from:id key))
    in
    List.fold_left
      (fun best id -> if dist id > dist best then id else best)
      (List.hd ids) ids
  in
  Printf.printf "querier: node %s, %d hops from the authority\n\n"
    (Format.asprintf "%a" Cup_overlay.Node_id.pp querier)
    (List.length
       (Cup_overlay.Route.hops_exn (Cup_overlay.Net.route topo ~from:querier key)));

  (* Let the replica system come up, then post the first query. *)
  Live.run_until live 310.;
  Live.post_query live ~node:querier ~key;
  Live.run_until live 320.;
  Printf.printf "after first query at t=310s:\n";
  Printf.printf "  cached entries at querier: %d\n"
    (List.length
       (Cup_proto.Node_store.fresh_entries (Live.store live) ~node:querier
          ~now:(Cup_dess.Time.of_seconds 320.)
          key));
  Printf.printf
    "  misses so far: %d (ours plus the background workload's cold starts)\n\n"
    (Counters.misses (Live.counters live));

  (* Query again shortly after: the cache is fresh, zero-cost hit. *)
  Live.post_query live ~node:querier ~key;
  Live.run_until live 330.;
  Printf.printf "second query at t=320s: hits=%d misses=%d\n"
    (Counters.hits (Live.counters live))
    (Counters.misses (Live.counters live));

  (* Jump past several refresh cycles: the background queries keep the
     subscription alive and refreshes keep extending the entry, so a
     query long after the original lifetime still hits. *)
  Live.run_until live 1000.;
  Live.post_query live ~node:querier ~key;
  Live.run_until live 1010.;
  Printf.printf
    "query at t=1000s (after %d refresh cycles): hits=%d misses=%d\n\n"
    2
    (Counters.hits (Live.counters live))
    (Counters.misses (Live.counters live));

  let result = Live.finish live in
  Printf.printf "final cost summary:\n%s\n"
    (Format.asprintf "%a" Counters.pp result.counters)
