module Policy = Cup_proto.Policy
module Counters = Cup_metrics.Counters
module Pool = Cup_parallel.Pool

type scale = Scaled | Full

(* Every experiment below fans its independent [Runner.run] calls over
   [pmap].  A run is a pure function of its scenario (own engine,
   topology, RNG), so with a pool the only thing that changes is
   wall-clock time: [Pool.map] returns results in input order and the
   assembly below is sequential, keeping parallel output byte-identical
   to sequential output. *)
let pmap ?pool f xs =
  match pool with
  | None -> List.map f xs
  | Some pool -> Pool.map pool f xs

let base_scenario scale =
  let nodes = match scale with Scaled -> 256 | Full -> 1024 in
  {
    Scenario.default with
    nodes;
    total_keys_override = Some 1;
    query_rate = 1.;
    drain = 1200.;
    seed = 42;
  }

(* Scaled rates keep the per-node query density of the paper's
   1024-node runs: lambda * 256/1024. *)
let rates = function
  | Scaled -> [ 0.25; 2.5; 25.; 250. ]
  | Full -> [ 1.; 10.; 100.; 1000. ]

let run_counters cfg = (Runner.run cfg).counters

(* {1 Figures 3 and 4} *)

type push_level_point = { level : int; total_cost : int; miss_cost : int }

type push_level_series = {
  rate : float;
  points : push_level_point list;
  optimal_level : int;
  optimal_total : int;
}

let default_levels scale =
  match scale with
  | Scaled -> [ 0; 1; 2; 3; 4; 5; 6; 8; 10; 12; 14; 16; 20; 24 ]
  | Full -> [ 0; 1; 2; 3; 4; 5; 6; 8; 10; 12; 15; 18; 21; 24; 27; 30 ]

let push_level_sweep ?pool ?levels scale ~rate =
  let levels =
    match levels with Some l -> l | None -> default_levels scale
  in
  let base = { (base_scenario scale) with query_rate = rate } in
  let points =
    pmap ?pool
      (fun level ->
        let cfg = Scenario.with_policy base (Policy.Push_level level) in
        let c = run_counters cfg in
        {
          level;
          total_cost = Counters.total_cost c;
          miss_cost = Counters.miss_cost c;
        })
      levels
  in
  let optimal =
    List.fold_left
      (fun acc p ->
        match acc with
        | Some best when best.total_cost <= p.total_cost -> acc
        | Some _ | None -> Some p)
      None points
  in
  match optimal with
  | None -> invalid_arg "push_level_sweep: empty level list"
  | Some best ->
      {
        rate;
        points;
        optimal_level = best.level;
        optimal_total = best.total_cost;
      }

(* {1 Table 1} *)

type policy_cell = { total : int; normalized : float }

type policy_row = {
  policy_label : string;
  cells : (float * policy_cell) list;
}

let table1_policies =
  [
    Policy.Standard_caching;
    Policy.Linear 0.25;
    Policy.Linear 0.10;
    Policy.Linear 0.01;
    Policy.Linear 0.001;
    Policy.Logarithmic 0.5;
    Policy.Logarithmic 0.25;
    Policy.Logarithmic 0.10;
    Policy.Logarithmic 0.01;
    Policy.second_chance;
  ]

let table1 ?pool ?optimal scale =
  let rs = rates scale in
  let base = base_scenario scale in
  (* One flat (policy, rate) grid so the whole table fans out at once. *)
  let totals =
    pmap ?pool
      (fun (policy, rate) ->
        let cfg =
          Scenario.with_policy { base with query_rate = rate } policy
        in
        ((policy, rate), Counters.total_cost (run_counters cfg)))
      (List.concat_map
         (fun policy -> List.map (fun rate -> (policy, rate)) rs)
         table1_policies)
  in
  let totals_for policy =
    List.map (fun rate -> (rate, List.assoc (policy, rate) totals)) rs
  in
  let standard = totals_for Policy.Standard_caching in
  let normalize rate total =
    let std = List.assoc rate standard in
    { total; normalized = float_of_int total /. float_of_int (max 1 std) }
  in
  let rows =
    List.map
      (fun policy ->
        let totals =
          if policy = Policy.Standard_caching then standard
          else totals_for policy
        in
        {
          policy_label = Policy.to_string policy;
          cells = List.map (fun (r, t) -> (r, normalize r t)) totals;
        })
      table1_policies
  in
  let optimal_series =
    match optimal with
    | Some series -> series
    | None -> List.map (fun rate -> push_level_sweep ?pool scale ~rate) rs
  in
  let optimal_cells =
    List.filter_map
      (fun rate ->
        match
          List.find_opt (fun s -> s.rate = rate) optimal_series
        with
        | Some s -> Some (rate, normalize rate s.optimal_total)
        | None -> None)
      rs
  in
  rows @ [ { policy_label = "optimal push level"; cells = optimal_cells } ]

(* {1 Table 2} *)

type size_row = {
  nodes : int;
  miss_cost_ratio : float;
  cup_miss_latency : float;
  std_miss_latency : float;
  saved_per_overhead : float;
}

let table2_sizes scale =
  let max_k = match scale with Scaled -> 10 | Full -> 12 in
  List.init (max_k - 2) (fun i -> 1 lsl (i + 3))

(* The paper reports miss latency as one-way hops to the answer; our
   counters measure round-trip elapsed time in hop units. *)
let one_way hops = hops /. 2.

let table2 ?pool scale =
  (* Flatten to one run per task: (nodes, policy) pairs. *)
  let runs =
    pmap ?pool
      (fun (nodes, policy) ->
        let base = { (base_scenario scale) with nodes } in
        ((nodes, policy), run_counters (Scenario.with_policy base policy)))
      (List.concat_map
         (fun nodes ->
           [ (nodes, Policy.Standard_caching); (nodes, Policy.second_chance) ])
         (table2_sizes scale))
  in
  List.map
    (fun nodes ->
      let std = List.assoc (nodes, Policy.Standard_caching) runs in
      let cup = List.assoc (nodes, Policy.second_chance) runs in
      let std_miss = Counters.miss_cost std in
      let cup_miss = Counters.miss_cost cup in
      let overhead = Counters.overhead_cost cup in
      {
        nodes;
        miss_cost_ratio = float_of_int cup_miss /. float_of_int (max 1 std_miss);
        cup_miss_latency = one_way (Counters.avg_miss_latency_hops cup);
        std_miss_latency = one_way (Counters.avg_miss_latency_hops std);
        saved_per_overhead =
          float_of_int (std_miss - cup_miss) /. float_of_int (max 1 overhead);
      })
    (table2_sizes scale)

(* {1 Table 3} *)

type replica_row = {
  replicas : int;
  naive_miss_cost : int;
  naive_misses : int;
  indep_miss_cost : int;
  indep_misses : int;
  indep_total_cost : int;
}

let table3_replicas = [ 100; 50; 10; 5; 2; 1 ]

let table3 ?pool scale =
  let base = base_scenario scale in
  let runs =
    pmap ?pool
      (fun (replicas, replica_independent_cutoff) ->
        let cfg =
          {
            base with
            replicas_per_key = replicas;
            node_config =
              {
                policy = Policy.second_chance;
                replica_independent_cutoff;
              };
          }
        in
        ((replicas, replica_independent_cutoff), run_counters cfg))
      (List.concat_map
         (fun replicas -> [ (replicas, false); (replicas, true) ])
         table3_replicas)
  in
  List.map
    (fun replicas ->
      let naive = List.assoc (replicas, false) runs in
      let indep = List.assoc (replicas, true) runs in
      {
        replicas;
        naive_miss_cost = Counters.miss_cost naive;
        naive_misses = Counters.misses naive;
        indep_miss_cost = Counters.miss_cost indep;
        indep_misses = Counters.misses indep;
        indep_total_cost = Counters.total_cost indep;
      })
    table3_replicas

(* {1 Figures 5 and 6} *)

type capacity_point = {
  capacity : float;
  up_and_down_total : int;
  once_down_total : int;
}

type capacity_series = {
  cap_rate : float;
  std_total : int;
  cap_points : capacity_point list;
}

let capacity_sweep ?pool ?(capacities = [ 0.; 0.25; 0.5; 0.75; 1. ]) scale
    ~rate =
  let base = { (base_scenario scale) with query_rate = rate } in
  (* The standard-caching reference run rides in the same fan-out as
     the per-capacity fault runs. *)
  let tasks =
    `Std
    :: List.concat_map
         (fun capacity -> [ `Up_and_down capacity; `Once_down capacity ])
         capacities
  in
  let results =
    pmap ?pool
      (fun task ->
        let faulted mk capacity = { base with faults = Some (mk capacity) } in
        match task with
        | `Std ->
            Counters.total_cost
              (run_counters (Scenario.with_policy base Policy.Standard_caching))
        | `Up_and_down capacity ->
            Counters.total_cost
              (run_counters
                 (faulted
                    (fun reduced ->
                      Scenario.Up_and_down
                        {
                          fraction = 0.2;
                          reduced;
                          warmup = 300.;
                          down = 600.;
                          gap = 300.;
                        })
                    capacity))
        | `Once_down capacity ->
            Counters.total_cost
              (run_counters
                 (faulted
                    (fun reduced ->
                      Scenario.Once_down
                        { fraction = 0.2; reduced; warmup = 300. })
                    capacity)))
      tasks
  in
  match results with
  | std :: rest ->
      let rec pair capacities totals =
        match (capacities, totals) with
        | [], [] -> []
        | capacity :: cs, up :: down :: ts ->
            { capacity; up_and_down_total = up; once_down_total = down }
            :: pair cs ts
        | _ -> assert false
      in
      { cap_rate = rate; std_total = std; cap_points = pair capacities rest }
  | [] -> assert false

(* {1 Ablations} *)

type ordering_row = {
  ordering_label : string;
  ord_total : int;
  ord_miss : int;
  ord_misses : int;
}

let ablation_queue_ordering ?pool scale =
  let base = base_scenario scale in
  (* Starve the update channels so the queues actually build up: five
     replicas refreshing every 60 s feed far more update traffic than
     a 0.05 update/s token bucket can carry, so queued updates compete
     and expire. *)
  let starved =
    {
      base with
      query_rate = 2.5;
      total_keys_override = Some 4;
      replicas_per_key = 5;
      replica_lifetime = 60.;
      death_prob = 0.3;
      capacity_mode = Scenario.Token_bucket 0.05;
    }
  in
  pmap ?pool
    (fun (label, ordering) ->
      let c = run_counters { starved with queue_ordering = ordering } in
      {
        ordering_label = label;
        ord_total = Counters.total_cost c;
        ord_miss = Counters.miss_cost c;
        ord_misses = Counters.misses c;
      })
    [
      ("latency-first", Cup_proto.Update_queue.Latency_first);
      ("flash-crowd", Cup_proto.Update_queue.Flash_crowd);
      ("fifo", Cup_proto.Update_queue.Fifo);
    ]

type dry_row = { dry_window : int; dry_total : int; dry_miss : int }

let ablation_log_based_window ?pool scale =
  let base = base_scenario scale in
  pmap ?pool
    (fun n ->
      let c =
        run_counters (Scenario.with_policy base (Policy.Log_based n))
      in
      {
        dry_window = n;
        dry_total = Counters.total_cost c;
        dry_miss = Counters.miss_cost c;
      })
    [ 1; 2; 3; 4; 5 ]

(* {1 Section 3.6 techniques and Section 3.1 justification} *)

type technique_row = {
  technique_label : string;
  tech_total : int;
  tech_overhead : int;
  tech_miss : int;
  tech_misses : int;
  tech_justified_pct : float;
}

let justified_pct (r : Runner.result) =
  if r.tracked_updates = 0 then 0.
  else 100. *. float_of_int r.justified_updates /. float_of_int r.tracked_updates

let propagation_techniques ?pool scale =
  let base =
    {
      (base_scenario scale) with
      replicas_per_key = 10;
      query_rate = List.nth (rates scale) 1;
    }
  in
  pmap ?pool
    (fun (label, cfg) ->
      let r = Runner.run cfg in
      {
        technique_label = label;
        tech_total = Counters.total_cost r.counters;
        tech_overhead = Counters.overhead_cost r.counters;
        tech_miss = Counters.miss_cost r.counters;
        tech_misses = Counters.misses r.counters;
        tech_justified_pct = justified_pct r;
      })
    [
      ("per-replica refreshes (Table 3 baseline)", base);
      ( "batched refreshes, 5 s window",
        { base with refresh_batch_window = 5. } );
      ( "batched refreshes, 30 s window",
        { base with refresh_batch_window = 30. } );
      ("suppress half the refreshes", { base with refresh_sample = 0.5 });
      ("suppress 3/4 of the refreshes", { base with refresh_sample = 0.25 });
      ("piggybacked clear-bits", { base with piggyback_clear_bits = true });
    ]

type justification_row = {
  j_policy : string;
  j_rate : float;
  j_justified_pct : float;
  j_tracked : int;
  j_saved_per_overhead : float;
}

let justification ?pool scale =
  let base = base_scenario scale in
  let rs = [ List.hd (rates scale); List.nth (rates scale) 2 ] in
  let policies = [ Policy.All_out; Policy.second_chance; Policy.Linear 0.01 ] in
  (* One run per (rate, policy) cell plus the per-rate standard-caching
     reference, all in one fan-out. *)
  let runs =
    pmap ?pool
      (fun (rate, policy) ->
        ( (rate, policy),
          Runner.run
            (Scenario.with_policy { base with query_rate = rate } policy) ))
      (List.concat_map
         (fun rate ->
           (rate, Policy.Standard_caching)
           :: List.map (fun p -> (rate, p)) policies)
         rs)
  in
  List.concat_map
    (fun rate ->
      let std = List.assoc (rate, Policy.Standard_caching) runs in
      let std_miss = Counters.miss_cost std.Runner.counters in
      List.map
        (fun policy ->
          let r = List.assoc (rate, policy) runs in
          let overhead = Counters.overhead_cost r.Runner.counters in
          {
            j_policy = Policy.to_string policy;
            j_rate = rate;
            j_justified_pct = justified_pct r;
            j_tracked = r.tracked_updates;
            j_saved_per_overhead =
              float_of_int (std_miss - Counters.miss_cost r.Runner.counters)
              /. float_of_int (Stdlib.max 1 overhead);
          })
        policies)
    rs

(* {1 Overlay generality} *)

type overlay_row = {
  overlay_label : string;
  o_policy : string;
  o_total : int;
  o_miss : int;
  o_misses : int;
  o_latency : float;
}

let overlay_comparison ?pool scale =
  let base =
    { (base_scenario scale) with query_rate = List.nth (rates scale) 1 }
  in
  pmap ?pool
    (fun ((overlay_label, overlay), policy) ->
      let r =
        Runner.run (Scenario.with_policy { base with overlay } policy)
      in
      {
        overlay_label;
        o_policy = Policy.to_string policy;
        o_total = Counters.total_cost r.counters;
        o_miss = Counters.miss_cost r.counters;
        o_misses = Counters.misses r.counters;
        o_latency = one_way (Counters.avg_miss_latency_hops r.counters);
      })
    (List.concat_map
       (fun overlay ->
         List.map
           (fun policy -> (overlay, policy))
           [ Policy.Standard_caching; Policy.second_chance ])
       [
         ("CAN (2-d torus)", Cup_overlay.Net.Can `Random);
         ("Chord (64-bit ring)", Cup_overlay.Net.Chord);
         ("Pastry (prefix routing)", Cup_overlay.Net.Pastry);
       ])

(* {1 Replication across seeds} *)

type replicated = {
  runs : int;
  total_mean : float;
  total_stddev : float;
  miss_mean : float;
  miss_stddev : float;
  misses_mean : float;
  misses_stddev : float;
  latency_mean : float;
  latency_stddev : float;
}

let replicated_of_results ~runs results =
  let total = Cup_metrics.Welford.create () in
  let miss = Cup_metrics.Welford.create () in
  let misses = Cup_metrics.Welford.create () in
  let latency = Cup_metrics.Welford.create () in
  (* Accumulate in seed order: the reported moments are independent of
     the pool's scheduling. *)
  List.iter
    (fun (r : Runner.result) ->
      Cup_metrics.Welford.add total (float_of_int (Counters.total_cost r.counters));
      Cup_metrics.Welford.add miss (float_of_int (Counters.miss_cost r.counters));
      Cup_metrics.Welford.add misses (float_of_int (Counters.misses r.counters));
      Cup_metrics.Welford.add latency (Counters.avg_miss_latency_hops r.counters))
    results;
  {
    runs;
    total_mean = Cup_metrics.Welford.mean total;
    total_stddev = Cup_metrics.Welford.stddev total;
    miss_mean = Cup_metrics.Welford.mean miss;
    miss_stddev = Cup_metrics.Welford.stddev miss;
    misses_mean = Cup_metrics.Welford.mean misses;
    misses_stddev = Cup_metrics.Welford.stddev misses;
    latency_mean = Cup_metrics.Welford.mean latency;
    latency_stddev = Cup_metrics.Welford.stddev latency;
  }

let replicate ?pool cfg ~runs =
  if runs < 1 then invalid_arg "Experiments.replicate: runs must be >= 1";
  let results =
    pmap ?pool
      (fun i -> Runner.run { cfg with Scenario.seed = cfg.Scenario.seed + i })
      (List.init runs Fun.id)
  in
  replicated_of_results ~runs results

let replicate_metrics ?pool cfg ~runs =
  if runs < 1 then
    invalid_arg "Experiments.replicate_metrics: runs must be >= 1";
  let observed =
    pmap ?pool
      (fun i ->
        let live =
          Runner.Live.create { cfg with Scenario.seed = cfg.Scenario.seed + i }
        in
        let registry = Cup_metrics.Registry.create () in
        Runner.Live.set_metrics live (Some registry);
        let r = Runner.Live.finish live in
        (r, registry))
      (List.init runs Fun.id)
  in
  let stats = replicated_of_results ~runs (List.map fst observed) in
  (* Merge in seed order: [Registry.merge] is exact (counters sum, bin
     counts add), so the merged exposition is byte-identical across
     job counts. *)
  let merged =
    List.fold_left
      (fun acc (_, registry) -> Cup_metrics.Registry.merge acc registry)
      (Cup_metrics.Registry.create ())
      observed
  in
  (stats, merged)

(* {1 Model versus simulation} *)

type model_row = {
  m_rate : float;
  m_fanout : int;
  measured_justified_pct : float;
  predicted_justified_pct : float;
}

let model_check ?pool scale =
  (* steady state: the model assumes queries keep arriving, so drop
     the drain period whose refreshes are unjustified by construction *)
  let base = { (base_scenario scale) with drain = 0. } in
  pmap ?pool
    (fun rate ->
      let cfg =
        Scenario.with_policy { base with query_rate = rate }
          (Policy.Push_level 1)
      in
      (* the topology is a pure function of the seed, so a fresh Live
         sees the same authority and neighbor count the run will *)
      let live = Runner.Live.create cfg in
      let net = Runner.Live.network live in
      let key = Runner.Live.key_of_index live 0 in
      let authority = Runner.Live.authority_of live key in
      let fanout =
        Stdlib.max 1
          (List.length (Cup_overlay.Net.neighbors net authority))
      in
      let r = Runner.run cfg in
      let predicted =
        Analysis.justified_probability
          ~subtree_rate:(rate /. float_of_int fanout)
          ~window:base.Scenario.replica_lifetime
      in
      {
        m_rate = rate;
        m_fanout = fanout;
        measured_justified_pct = justified_pct r;
        predicted_justified_pct = 100. *. predicted;
      })
    (* rates spanning the regime where P(justified) actually varies:
       subtree_rate * lifetime from ~0.4 to ~75 *)
    [ 0.005; 0.01; 0.02; 0.05; 0.1; 0.25; 1. ]

(* {1 The twelve experiments, printed}

   One renderer per experiment, shared by [cup exp] and [cup sweep]:
   a section banner, paper-style tables, ASCII plots and, given a
   directory, CSV files. *)

module Table = Cup_report.Table
module Plot = Cup_report.Plot

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n\n"

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": Not a directory"))

let write_csv csv_dir name ~header rows =
  match csv_dir with
  | None -> ()
  | Some dir ->
      ensure_dir dir;
      let path = Filename.concat dir (name ^ ".csv") in
      Cup_report.Csv.write ~path ~header rows;
      Printf.printf "(wrote %s)\n" path

(* A titled table with one row of cells per result row. *)
let print_rows ~title ~columns cells rows =
  let table = Table.create ~title ~columns in
  List.iter (fun r -> Table.add_row table (cells r)) rows;
  Table.print table

let print_push_level ?csv_dir ~log_y ~title sweeps =
  let costs level s =
    match List.find_opt (fun q -> q.level = level) s.points with
    | Some q -> [ Table.cell_int q.total_cost; Table.cell_int q.miss_cost ]
    | None -> [ "-"; "-" ]
  in
  print_rows ~title
    ~columns:
      ("push level"
      :: List.concat_map
           (fun s ->
             [
               Printf.sprintf "total (%g q/s)" s.rate;
               Printf.sprintf "miss (%g q/s)" s.rate;
             ])
           sweeps)
    (fun p -> Table.cell_int p.level :: List.concat_map (costs p.level) sweeps)
    (match sweeps with [] -> [] | first :: _ -> first.points);
  List.iter
    (fun s ->
      write_csv csv_dir
        (Printf.sprintf "push_level_%g_qps" s.rate)
        ~header:[ "level"; "total_cost"; "miss_cost" ]
        (List.map
           (fun p ->
             [
               string_of_int p.level;
               string_of_int p.total_cost;
               string_of_int p.miss_cost;
             ])
           s.points);
      Printf.printf "optimal push level for %g q/s: %d (total cost %d)\n"
        s.rate s.optimal_level s.optimal_total)
    sweeps;
  print_newline ();
  let curve label cost s =
    {
      Plot.label = Printf.sprintf "%s, %g q/s" label s.rate;
      points =
        List.map
          (fun p -> (float_of_int p.level, float_of_int (cost p)))
          s.points;
    }
  in
  Plot.print ~log_y ~title ~x_label:"push level" ~y_label:"cost (hops)"
    (List.concat_map
       (fun s ->
         [
           curve "total" (fun p -> p.total_cost) s;
           curve "miss" (fun p -> p.miss_cost) s;
         ])
       sweeps)

let print_table1 ?csv_dir scale rows =
  let rates = rates scale in
  print_rows ~title:"Table 1: total cost for varying cut-off policies"
    ~columns:("policy" :: List.map (Printf.sprintf "%g q/s total") rates)
    (fun row ->
      row.policy_label
      :: List.map
           (fun rate ->
             match List.assoc_opt rate row.cells with
             | Some cell ->
                 Printf.sprintf "%d %s" cell.total
                   (Table.cell_ratio cell.normalized)
             | None -> "-")
           rates)
    rows;
  write_csv csv_dir "table1"
    ~header:("policy" :: List.map (Printf.sprintf "%g_qps") rates)
    (List.map
       (fun row ->
         row.policy_label
         :: List.map
              (fun rate ->
                match List.assoc_opt rate row.cells with
                | Some cell -> string_of_int cell.total
                | None -> "")
              rates)
       rows)

let print_table2 ?csv_dir rows =
  (* Transposed like the paper: one column per network size. *)
  let table =
    Table.create
      ~title:"Table 2: CUP vs standard caching for varying network size"
      ~columns:("metric" :: List.map (fun r -> string_of_int r.nodes) rows)
  in
  let add label cell = Table.add_row table (label :: List.map cell rows) in
  add "CUP / STD miss cost" (fun r -> Table.cell_float r.miss_cost_ratio);
  add "CUP miss latency (one-way hops)" (fun r ->
      Table.cell_float ~decimals:1 r.cup_miss_latency);
  add "STD miss latency (one-way hops)" (fun r ->
      Table.cell_float ~decimals:1 r.std_miss_latency);
  add "saved miss hops per overhead hop" (fun r ->
      Table.cell_float r.saved_per_overhead);
  Table.print table;
  write_csv csv_dir "table2"
    ~header:
      [ "nodes"; "miss_cost_ratio"; "cup_latency"; "std_latency";
        "saved_per_overhead" ]
    (List.map
       (fun r ->
         [
           string_of_int r.nodes;
           Printf.sprintf "%.4f" r.miss_cost_ratio;
           Printf.sprintf "%.2f" r.cup_miss_latency;
           Printf.sprintf "%.2f" r.std_miss_latency;
           Printf.sprintf "%.4f" r.saved_per_overhead;
         ])
       rows)

let print_table3 ?csv_dir rows =
  print_rows
    ~title:"Table 3: miss cost, misses, total cost for varying replica counts"
    ~columns:
      [
        "replicas";
        "naive miss cost (misses)";
        "indep miss cost (misses)";
        "indep total cost";
      ]
    (fun r ->
      [
        Table.cell_int r.replicas;
        Printf.sprintf "%d (%d)" r.naive_miss_cost r.naive_misses;
        Printf.sprintf "%d (%d)" r.indep_miss_cost r.indep_misses;
        Table.cell_int r.indep_total_cost;
      ])
    rows;
  write_csv csv_dir "table3"
    ~header:
      [ "replicas"; "naive_miss_cost"; "naive_misses"; "indep_miss_cost";
        "indep_misses"; "indep_total" ]
    (List.map
       (fun r ->
         [
           string_of_int r.replicas;
           string_of_int r.naive_miss_cost;
           string_of_int r.naive_misses;
           string_of_int r.indep_miss_cost;
           string_of_int r.indep_misses;
           string_of_int r.indep_total_cost;
         ])
       rows)

let print_capacity ?csv_dir ~log_y title s =
  let table =
    Table.create
      ~title:(Printf.sprintf "%s (lambda = %g q/s)" title s.cap_rate)
      ~columns:
        [ "capacity"; "Up-And-Down total"; "Once-Down-Always-Down total" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Table.cell_float p.capacity;
          Table.cell_int p.up_and_down_total;
          Table.cell_int p.once_down_total;
        ])
    s.cap_points;
  Table.add_separator table;
  Table.add_row table
    [ "std caching"; Table.cell_int s.std_total; Table.cell_int s.std_total ];
  Table.print table;
  write_csv csv_dir
    (Printf.sprintf "capacity_%g_qps" s.cap_rate)
    ~header:[ "capacity"; "up_and_down_total"; "once_down_total"; "std_total" ]
    (List.map
       (fun p ->
         [
           Printf.sprintf "%.2f" p.capacity;
           string_of_int p.up_and_down_total;
           string_of_int p.once_down_total;
           string_of_int s.std_total;
         ])
       s.cap_points);
  let curve label total =
    {
      Plot.label;
      points =
        List.map (fun p -> (p.capacity, float_of_int (total p))) s.cap_points;
    }
  in
  Plot.print ~log_y ~title ~x_label:"capacity" ~y_label:"total cost (hops)"
    [
      curve "Up-And-Down" (fun p -> p.up_and_down_total);
      curve "Once-Down-Always-Down" (fun p -> p.once_down_total);
      curve "standard caching" (fun _ -> s.std_total);
    ]

let print_ordering =
  print_rows
    ~title:"Ablation: update-queue ordering under token-bucket starvation"
    ~columns:[ "ordering"; "total cost"; "miss cost"; "misses" ]
    (fun r ->
      [
        r.ordering_label;
        Table.cell_int r.ord_total;
        Table.cell_int r.ord_miss;
        Table.cell_int r.ord_misses;
      ])

let print_window =
  print_rows ~title:"Ablation: log-based cut-off window (second-chance = 2)"
    ~columns:[ "dry-update window"; "total cost"; "miss cost" ]
    (fun r ->
      [
        Table.cell_int r.dry_window;
        Table.cell_int r.dry_total;
        Table.cell_int r.dry_miss;
      ])

let print_overlays =
  print_rows ~title:"CUP over different structured overlays (Section 2.2)"
    ~columns:
      [ "overlay"; "policy"; "total"; "miss cost"; "misses"; "miss latency" ]
    (fun r ->
      [
        r.overlay_label;
        r.o_policy;
        Table.cell_int r.o_total;
        Table.cell_int r.o_miss;
        Table.cell_int r.o_misses;
        Table.cell_float ~decimals:1 r.o_latency;
      ])

let print_techniques =
  print_rows
    ~title:"Section 3.6 techniques: reducing propagation overhead (10 replicas)"
    ~columns:
      [ "technique"; "total"; "overhead"; "miss cost"; "misses"; "justified %" ]
    (fun r ->
      [
        r.technique_label;
        Table.cell_int r.tech_total;
        Table.cell_int r.tech_overhead;
        Table.cell_int r.tech_miss;
        Table.cell_int r.tech_misses;
        Table.cell_float ~decimals:1 r.tech_justified_pct;
      ])

let print_model =
  print_rows
    ~title:"Model vs simulation: justified-update probability at level 1"
    ~columns:[ "rate (q/s)"; "authority fanout"; "measured %"; "model %" ]
    (fun r ->
      [
        Printf.sprintf "%g" r.m_rate;
        Table.cell_int r.m_fanout;
        Table.cell_float ~decimals:1 r.measured_justified_pct;
        Table.cell_float ~decimals:1 r.predicted_justified_pct;
      ])

let print_justification =
  print_rows
    ~title:"Section 3.1 check: justified updates vs realized saved/overhead"
    ~columns:
      [ "policy"; "rate (q/s)"; "justified %"; "tracked"; "saved/overhead" ]
    (fun r ->
      [
        r.j_policy;
        Printf.sprintf "%g" r.j_rate;
        Table.cell_float ~decimals:1 r.j_justified_pct;
        Table.cell_int r.j_tracked;
        Table.cell_float r.j_saved_per_overhead;
      ])

(* What one [print] call shares across its experiments. *)
type env = {
  scale : scale;
  pool : Pool.t option;
  csv_dir : string option;
  mutable sweeps : push_level_series list;
      (* fig3's and fig4's, for table1's optimal row *)
}

type experiment = { name : string; title : string; run : env -> unit }

(* Figure 3 sweeps the two low rates, Figure 4 the two high ones. *)
let push_figure env ~low ~log_y title =
  let rates = List.filteri (fun i _ -> (i < 2) = low) (rates env.scale) in
  let sweeps =
    List.map (fun rate -> push_level_sweep ?pool:env.pool env.scale ~rate) rates
  in
  env.sweeps <- env.sweeps @ sweeps;
  print_push_level ?csv_dir:env.csv_dir ~log_y ~title:(title rates) sweeps

let capacity_figure env ~log_y ~rate title =
  let rate = rate (rates env.scale) in
  print_capacity ?csv_dir:env.csv_dir ~log_y title
    (capacity_sweep ?pool:env.pool env.scale ~rate)

let experiments =
  [
    {
      name = "fig3";
      title = "Figure 3: total and miss cost vs push level (low query rates)";
      run =
        (fun env ->
          push_figure env ~low:true ~log_y:false (fun rates ->
              Printf.sprintf "Figure 3: cost vs push level (%s q/s)"
                (String.concat " and " (List.map (Printf.sprintf "%g") rates))));
    };
    {
      name = "fig4";
      title = "Figure 4: total and miss cost vs push level (high query rates)";
      run =
        (fun env ->
          push_figure env ~low:false ~log_y:true (fun _ ->
              "Figure 4: cost vs push level (high rates, log y)"));
    };
    {
      name = "table1";
      title = "Table 1: total cost for varying cut-off policies";
      run =
        (fun env ->
          let optimal = match env.sweeps with [] -> None | s -> Some s in
          print_table1 ?csv_dir:env.csv_dir env.scale
            (table1 ?pool:env.pool ?optimal env.scale));
    };
    {
      name = "table2";
      title = "Table 2: CUP vs standard caching, varying network size";
      run =
        (fun env ->
          print_table2 ?csv_dir:env.csv_dir (table2 ?pool:env.pool env.scale));
    };
    {
      name = "table3";
      title = "Table 3: naive vs replica-independent cut-off";
      run =
        (fun env ->
          print_table3 ?csv_dir:env.csv_dir (table3 ?pool:env.pool env.scale));
    };
    {
      name = "fig5";
      title = "Figure 5: total cost vs reduced capacity (low rate)";
      run =
        (fun env ->
          capacity_figure env ~log_y:false
            ~rate:(fun rates -> List.nth rates 1)
            "Figure 5: total cost vs capacity");
    };
    {
      name = "fig6";
      title = "Figure 6: total cost vs reduced capacity (high rate, log y)";
      run =
        (fun env ->
          capacity_figure env ~log_y:true
            ~rate:(fun rates -> List.nth rates (List.length rates - 1))
            "Figure 6: total cost vs capacity");
    };
    {
      name = "ablations";
      title = "Ablations";
      run =
        (fun env ->
          print_ordering (ablation_queue_ordering ?pool:env.pool env.scale);
          print_window (ablation_log_based_window ?pool:env.pool env.scale));
    };
    {
      name = "overlays";
      title = "Overlay generality: CUP over CAN, Chord and Pastry";
      run = (fun env -> print_overlays (overlay_comparison ?pool:env.pool env.scale));
    };
    {
      name = "techniques";
      title = "Section 3.6 propagation-overhead techniques";
      run =
        (fun env ->
          print_techniques (propagation_techniques ?pool:env.pool env.scale));
    };
    {
      name = "model";
      title = "Section 3.1 model vs simulation";
      run = (fun env -> print_model (model_check ?pool:env.pool env.scale));
    };
    {
      name = "justification";
      title = "Section 3.1 justified-update accounting";
      run =
        (fun env -> print_justification (justification ?pool:env.pool env.scale));
    };
  ]

let names = List.map (fun e -> e.name) experiments

let print ?pool ?csv_dir scale selected =
  (match List.filter (fun n -> not (List.mem n names)) selected with
  | [] -> ()
  | unknown ->
      invalid_arg
        ("Experiments.print: unknown experiment " ^ String.concat ", " unknown));
  (* Fail on a bad directory before the first simulation, not after. *)
  Option.iter ensure_dir csv_dir;
  let env = { scale; pool; csv_dir; sweeps = [] } in
  List.iter
    (fun e ->
      if List.mem e.name selected then begin
        section e.title;
        e.run env
      end)
    experiments
