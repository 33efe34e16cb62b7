module Policy = Cup_proto.Policy
module Counters = Cup_metrics.Counters
module Pool = Cup_parallel.Pool
module Table = Cup_report.Table
module Plot = Cup_report.Plot

type scale = Scaled | Full

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

(* {1 The grid} *)

type axis = string * (string * (Scenario.t -> Scenario.t)) list
type metric = string * (Runner.Live.t -> Runner.result -> float)
type grid = { base : Scenario.t; axes : axis list; metrics : metric list }
type cell = { labels : string list; values : (string * float) list }

let axis name label set xs =
  (name, List.map (fun x -> (label x, fun cfg -> set cfg x)) xs)

let measure metrics live r =
  List.map (fun (name, read) -> (name, read live r)) metrics

(* A run is a pure function of its scenario (own engine, topology,
   RNG), so with a pool the only thing that changes is wall-clock time:
   [Pool.map] returns results in input order, keeping parallel cells
   byte-identical to sequential ones. *)
let run_grid ?pool { base; axes; metrics } =
  let points =
    List.fold_left
      (fun points (_, overrides) ->
        List.concat_map
          (fun (labels, cfg) ->
            List.map (fun (label, set) -> (label :: labels, set cfg)) overrides)
          points)
      [ ([], base) ]
      axes
  in
  let run (labels, cfg) =
    let live = Runner.Live.create cfg in
    let r = Runner.Live.finish live in
    { labels = List.rev labels; values = measure metrics live r }
  in
  match pool with
  | None -> List.map run points
  | Some pool -> Pool.map pool run points

let value name cell = List.assoc name cell.values
let count name cell = int_of_float (value name cell)
let find cells labels = List.find (fun c -> c.labels = labels) cells

let counter name read : metric =
  (name, fun _ r -> float_of_int (read r.Runner.counters))

let total = counter "total" Counters.total_cost
let miss = counter "miss" Counters.miss_cost
let misses = counter "misses" Counters.misses
let overhead = counter "overhead" Counters.overhead_cost

let latency : metric =
  ("latency", fun _ r -> Counters.avg_miss_latency_hops r.counters)

(* The percentage of propagated updates that a query reached within
   their critical window (Section 3.1); 0 when none was tracked. *)
let justified : metric =
  ( "justified",
    fun _ r ->
      100. *. float_of_int r.justified_updates
      /. float_of_int (max 1 r.tracked_updates) )

let rate_label = Printf.sprintf "%g"

let rate_axis =
  axis "rate" rate_label (fun cfg query_rate ->
      { cfg with Scenario.query_rate })

let policy_axis = axis "policy" Policy.to_string Scenario.with_policy

(* {1 Rendering} *)

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

let ints names c = List.map (fun n -> Table.cell_int (count n c)) names

(* {1 The twelve experiments} *)

type experiment = {
  name : string;
  title : string;
  grids : scale -> (string * grid) list;
  render : scale -> csv_dir:string option -> (string -> cell list) -> unit;
}

(* Most experiments run one grid, named after the experiment. *)
let single name title grid render =
  {
    name;
    title;
    grids = (fun scale -> [ (name, grid scale) ]);
    render = (fun scale ~csv_dir cells -> render scale ~csv_dir (cells name));
  }

(* {2 Figures 3 and 4: cost versus push level} *)

let default_levels = function
  | Scaled -> [ 0; 1; 2; 3; 4; 5; 6; 8; 10; 12; 14; 16; 20; 24 ]
  | Full -> [ 0; 1; 2; 3; 4; 5; 6; 8; 10; 12; 15; 18; 21; 24; 27; 30 ]

let push_name rate = Printf.sprintf "push levels at %g q/s" rate

let push_levels scale ~rate =
  ( push_name rate,
    {
      base = { (base_scenario scale) with query_rate = rate };
      axes =
        [
          axis "level" string_of_int
            (fun cfg level ->
              Scenario.with_policy cfg (Policy.Push_level level))
            (default_levels scale);
        ];
      metrics = [ total; miss ];
    } )

let optimal cells =
  List.fold_left
    (fun best c -> if value "total" c < value "total" best then c else best)
    (List.hd cells) cells

let print_push_level ?csv_dir ~log_y ~title series =
  let level c = List.hd c.labels and metrics = [ "total"; "miss" ] in
  print_rows ~title
    ~columns:
      ("push level"
      :: List.concat_map
           (fun (rate, _) ->
             List.map (fun m -> Printf.sprintf "%s (%g q/s)" m rate) metrics)
           series)
    (fun c ->
      level c
      :: List.concat_map
           (fun (_, cells) -> ints metrics (find cells c.labels))
           series)
    (match series with [] -> [] | (_, first) :: _ -> first);
  List.iter
    (fun (rate, cells) ->
      write_csv csv_dir
        (Printf.sprintf "push_level_%g_qps" rate)
        ~header:[ "level"; "total_cost"; "miss_cost" ]
        (List.map (fun c -> level c :: ints metrics c) cells);
      let best = optimal cells in
      Printf.printf "optimal push level for %g q/s: %s (total cost %d)\n" rate
        (level best) (count "total" best))
    series;
  print_newline ();
  let curve label (rate, cells) =
    {
      Plot.label = Printf.sprintf "%s, %g q/s" label rate;
      points =
        List.map (fun c -> (float_of_string (level c), value label c)) cells;
    }
  in
  Plot.print ~log_y ~title ~x_label:"push level" ~y_label:"cost (hops)"
    (List.concat_map (fun s -> List.map (fun m -> curve m s) metrics) series)

(* Figure 3 sweeps the two low rates, Figure 4 the two high ones. *)
let push_figure name title ~low ~log_y heading =
  let pick scale = List.filteri (fun i _ -> (i < 2) = low) (rates scale) in
  {
    name;
    title;
    grids =
      (fun scale -> List.map (fun rate -> push_levels scale ~rate) (pick scale));
    render =
      (fun scale ~csv_dir cells ->
        let rs = pick scale in
        print_push_level ?csv_dir ~log_y ~title:(heading rs)
          (List.map (fun rate -> (rate, cells (push_name rate))) rs));
  }

let fig3 =
  push_figure "fig3"
    "Figure 3: total and miss cost vs push level (low query rates)" ~low:true
    ~log_y:false (fun rs ->
      Printf.sprintf "Figure 3: cost vs push level (%s q/s)"
        (String.concat " and " (List.map rate_label rs)))

let fig4 =
  push_figure "fig4"
    "Figure 4: total and miss cost vs push level (high query rates)"
    ~low:false ~log_y:true (fun _ ->
      "Figure 4: cost vs push level (high rates, log y)")

(* {2 Table 1: cut-off policies} *)

let table1_policies =
  (Policy.Standard_caching
  :: List.map (fun a -> Policy.Linear a) [ 0.25; 0.10; 0.01; 0.001 ])
  @ List.map (fun a -> Policy.Logarithmic a) [ 0.5; 0.25; 0.10; 0.01 ]
  @ [ Policy.second_chance ]

let table1_rows scale cells =
  let rs = rates scale in
  let row label total_at = (label, List.map (fun r -> (r, total_at r)) rs) in
  let policies = cells "table1" in
  List.map
    (fun policy ->
      let label = Policy.to_string policy in
      row label (fun r -> count "total" (find policies [ label; rate_label r ])))
    table1_policies
  @ [
      row "optimal push level" (fun r ->
          count "total" (optimal (cells (push_name r))));
    ]

let print_table1 scale ~csv_dir cells =
  let rs = rates scale and rows = table1_rows scale cells in
  let std = List.assoc (Policy.to_string Policy.Standard_caching) rows in
  print_rows ~title:"Table 1: total cost for varying cut-off policies"
    ~columns:("policy" :: List.map (Printf.sprintf "%g q/s total") rs)
    (fun (label, totals) ->
      label
      :: List.map2
           (fun (_, total) (_, std) ->
             Printf.sprintf "%d %s" total
               (Table.cell_ratio
                  (float_of_int total /. float_of_int (max 1 std))))
           totals std)
    rows;
  write_csv csv_dir "table1"
    ~header:("policy" :: List.map (Printf.sprintf "%g_qps") rs)
    (List.map
       (fun (label, totals) ->
         label :: List.map (fun (_, total) -> string_of_int total) totals)
       rows)

let table1 =
  {
    name = "table1";
    title = "Table 1: total cost for varying cut-off policies";
    grids =
      (fun scale ->
        ( "table1",
          {
            base = base_scenario scale;
            axes = [ policy_axis table1_policies; rate_axis (rates scale) ];
            metrics = [ total ];
          } )
        :: List.map (fun rate -> push_levels scale ~rate) (rates scale));
    render = print_table1;
  }

(* {2 Table 2: varying the network size} *)

let table2_sizes scale =
  let max_k = match scale with Scaled -> 10 | Full -> 12 in
  List.init (max_k - 2) (fun i -> 1 lsl (i + 3))

(* The paper reports miss latency as one-way hops to the answer; our
   counters measure round-trip elapsed time in hop units. *)
let one_way c = value "latency" c /. 2.

let print_table2 scale ~csv_dir cells =
  (* Transposed like the paper: one column per network size, each the
     CUP / STD miss-cost ratio, both miss latencies and the saved miss
     hops per overhead hop. *)
  let columns =
    List.map
      (fun nodes ->
        let at p = find cells [ string_of_int nodes; Policy.to_string p ] in
        let std = at Policy.Standard_caching and cup = at Policy.second_chance in
        let ratio a b = float_of_int a /. float_of_int (max 1 b) in
        ( nodes,
          [
            ratio (count "miss" cup) (count "miss" std);
            one_way cup;
            one_way std;
            ratio (count "miss" std - count "miss" cup) (count "overhead" cup);
          ] ))
      (table2_sizes scale)
  in
  let table =
    Table.create
      ~title:"Table 2: CUP vs standard caching for varying network size"
      ~columns:("metric" :: List.map (fun (n, _) -> string_of_int n) columns)
  in
  List.iteri
    (fun i (label, decimals) ->
      Table.add_row table
        (label
        :: List.map (fun (_, v) -> Table.cell_float ~decimals (List.nth v i))
             columns))
    [
      ("CUP / STD miss cost", 2);
      ("CUP miss latency (one-way hops)", 1);
      ("STD miss latency (one-way hops)", 1);
      ("saved miss hops per overhead hop", 2);
    ];
  Table.print table;
  write_csv csv_dir "table2"
    ~header:
      [ "nodes"; "miss_cost_ratio"; "cup_latency"; "std_latency";
        "saved_per_overhead" ]
    (List.map
       (fun (nodes, v) ->
         string_of_int nodes :: List.map2 (Printf.sprintf "%.*f") [ 4; 2; 2; 4 ] v)
       columns)

let table2 =
  single "table2" "Table 2: CUP vs standard caching, varying network size"
    (fun scale ->
      {
        base = base_scenario scale;
        axes =
          [
            axis "nodes" string_of_int
              (fun cfg nodes -> { cfg with Scenario.nodes })
              (table2_sizes scale);
            policy_axis [ Policy.Standard_caching; Policy.second_chance ];
          ];
        metrics = [ miss; overhead; latency ];
      })
    print_table2

(* {2 Table 3: multiple replicas per key} *)

let table3_replicas = [ 100; 50; 10; 5; 2; 1 ]

let print_table3 _ ~csv_dir cells =
  let rows =
    List.map
      (fun replicas ->
        let at cutoff = find cells [ string_of_int replicas; cutoff ] in
        let naive = at "naive" and indep = at "independent" in
        ( replicas,
          [
            count "miss" naive; count "misses" naive; count "miss" indep;
            count "misses" indep; count "total" indep;
          ] ))
      table3_replicas
  in
  print_rows
    ~title:"Table 3: miss cost, misses, total cost for varying replica counts"
    ~columns:
      [
        "replicas";
        "naive miss cost (misses)";
        "indep miss cost (misses)";
        "indep total cost";
      ]
    (fun (replicas, v) ->
      let n = List.nth v in
      [
        Table.cell_int replicas;
        Printf.sprintf "%d (%d)" (n 0) (n 1);
        Printf.sprintf "%d (%d)" (n 2) (n 3);
        Table.cell_int (n 4);
      ])
    rows;
  write_csv csv_dir "table3"
    ~header:
      [ "replicas"; "naive_miss_cost"; "naive_misses"; "indep_miss_cost";
        "indep_misses"; "indep_total" ]
    (List.map (fun (replicas, v) -> List.map string_of_int (replicas :: v)) rows)

let table3 =
  single "table3" "Table 3: naive vs replica-independent cut-off"
    (fun scale ->
      {
        base = base_scenario scale;
        axes =
          [
            axis "replicas" string_of_int
              (fun cfg replicas_per_key -> { cfg with Scenario.replicas_per_key })
              table3_replicas;
            axis "cut-off"
              (fun indep -> if indep then "independent" else "naive")
              (fun cfg replica_independent_cutoff ->
                {
                  cfg with
                  Scenario.node_config =
                    { policy = Policy.second_chance; replica_independent_cutoff };
                })
              [ false; true ];
          ];
        metrics = [ miss; misses; total ];
      })
    print_table3

(* {2 Figures 5 and 6: reduced outgoing capacity} *)

let capacities = [ 0.; 0.25; 0.5; 0.75; 1. ]

let capacity_names rate =
  ( Printf.sprintf "capacity at %g q/s" rate,
    Printf.sprintf "standard caching at %g q/s" rate )

let print_capacity ~log_y title ~rate scale ~csv_dir cells =
  let rate = rate (rates scale) in
  let faulted, reference = capacity_names rate in
  let faulted = cells faulted and std = count "total" (List.hd (cells reference)) in
  let at schedule capacity =
    count "total" (find faulted [ Printf.sprintf "%g" capacity; schedule ])
  in
  let table =
    Table.create
      ~title:(Printf.sprintf "%s (lambda = %g q/s)" title rate)
      ~columns:
        [ "capacity"; "Up-And-Down total"; "Once-Down-Always-Down total" ]
  in
  List.iter
    (fun c ->
      Table.add_row table
        [
          Table.cell_float c;
          Table.cell_int (at "up-and-down" c);
          Table.cell_int (at "once-down" c);
        ])
    capacities;
  Table.add_separator table;
  Table.add_row table [ "std caching"; Table.cell_int std; Table.cell_int std ];
  Table.print table;
  write_csv csv_dir
    (Printf.sprintf "capacity_%g_qps" rate)
    ~header:[ "capacity"; "up_and_down_total"; "once_down_total"; "std_total" ]
    (List.map
       (fun c ->
         Printf.sprintf "%.2f" c
         :: List.map string_of_int [ at "up-and-down" c; at "once-down" c; std ])
       capacities);
  let curve label total =
    {
      Plot.label;
      points = List.map (fun c -> (c, float_of_int (total c))) capacities;
    }
  in
  Plot.print ~log_y ~title ~x_label:"capacity" ~y_label:"total cost (hops)"
    [
      curve "Up-And-Down" (at "up-and-down");
      curve "Once-Down-Always-Down" (at "once-down");
      curve "standard caching" (fun _ -> std);
    ]

(* After a 300 s warm-up, 20% of the nodes drop to the capacity on the
   first axis and stay down, or cycle 600 s down and 300 s up; standard
   caching without faults is the horizontal reference. *)
let up_and_down cfg =
  match cfg.Scenario.faults with
  | Some (Scenario.Once_down { fraction; reduced; warmup }) ->
      let down = 600. and gap = 300. in
      let cycling = Scenario.Up_and_down { fraction; reduced; warmup; down; gap } in
      { cfg with faults = Some cycling }
  | _ -> cfg

let capacity_figure name title ~log_y ~rate heading =
  {
    name;
    title;
    grids =
      (fun scale ->
        let rate = rate (rates scale) in
        let base = { (base_scenario scale) with query_rate = rate } in
        let faulted, reference = capacity_names rate in
        [
          ( faulted,
            {
              base;
              axes =
                [
                  axis "capacity" (Printf.sprintf "%g")
                    (fun cfg reduced ->
                      let once =
                        Scenario.Once_down
                          { fraction = 0.2; reduced; warmup = 300. }
                      in
                      { cfg with Scenario.faults = Some once })
                    capacities;
                  ( "schedule",
                    [ ("up-and-down", up_and_down); ("once-down", Fun.id) ] );
                ];
              metrics = [ total ];
            } );
          ( reference,
            {
              base = Scenario.with_policy base Policy.Standard_caching;
              axes = [];
              metrics = [ total ];
            } );
        ]);
    render = print_capacity ~log_y heading ~rate;
  }

let fig5 =
  capacity_figure "fig5" "Figure 5: total cost vs reduced capacity (low rate)"
    ~log_y:false
    ~rate:(fun rs -> List.nth rs 1)
    "Figure 5: total cost vs capacity"

let fig6 =
  capacity_figure "fig6"
    "Figure 6: total cost vs reduced capacity (high rate, log y)" ~log_y:true
    ~rate:(fun rs -> List.nth rs (List.length rs - 1))
    "Figure 6: total cost vs capacity"

(* {2 Ablations, overlays, techniques and the Section 3.1 checks} *)

let ablations =
  {
    name = "ablations";
    title = "Ablations";
    grids =
      (fun scale ->
        let base = base_scenario scale in
        [
          (* Starve the update channels so the queues actually build
             up: five replicas refreshing every 60 s feed far more
             update traffic than a 0.05 update/s token bucket can
             carry, so queued updates compete and expire. *)
          ( "queue ordering",
            {
              base =
                {
                  base with
                  query_rate = 2.5;
                  total_keys_override = Some 4;
                  replicas_per_key = 5;
                  replica_lifetime = 60.;
                  death_prob = 0.3;
                  capacity_mode = Scenario.Token_bucket 0.05;
                };
              axes =
                [
                  axis "ordering" fst
                    (fun cfg (_, queue_ordering) ->
                      { cfg with Scenario.queue_ordering })
                    [
                      ("latency-first", Cup_proto.Update_queue.Latency_first);
                      ("flash-crowd", Cup_proto.Update_queue.Flash_crowd);
                      ("fifo", Cup_proto.Update_queue.Fifo);
                    ];
                ];
              metrics = [ total; miss; misses ];
            } );
          ( "dry-update window",
            {
              base;
              axes =
                [
                  axis "window" string_of_int
                    (fun cfg n -> Scenario.with_policy cfg (Policy.Log_based n))
                    [ 1; 2; 3; 4; 5 ];
                ];
              metrics = [ total; miss ];
            } );
        ]);
    render =
      (fun _ ~csv_dir:_ cells ->
        print_rows
          ~title:"Ablation: update-queue ordering under token-bucket starvation"
          ~columns:[ "ordering"; "total cost"; "miss cost"; "misses" ]
          (fun c -> c.labels @ ints [ "total"; "miss"; "misses" ] c)
          (cells "queue ordering");
        print_rows
          ~title:"Ablation: log-based cut-off window (second-chance = 2)"
          ~columns:[ "dry-update window"; "total cost"; "miss cost" ]
          (fun c -> c.labels @ ints [ "total"; "miss" ] c)
          (cells "dry-update window"));
  }

let overlays =
  single "overlays" "Overlay generality: CUP over CAN, Chord and Pastry"
    (fun scale ->
      {
        base =
          { (base_scenario scale) with query_rate = List.nth (rates scale) 1 };
        axes =
          [
            axis "overlay" fst
              (fun cfg (_, overlay) -> { cfg with Scenario.overlay })
              [
                ("CAN (2-d torus)", Cup_overlay.Net.Can `Random);
                ("Chord (64-bit ring)", Cup_overlay.Net.Chord);
                ("Pastry (prefix routing)", Cup_overlay.Net.Pastry);
              ];
            policy_axis [ Policy.Standard_caching; Policy.second_chance ];
          ];
        metrics = [ total; miss; misses; latency ];
      })
    (fun _ ~csv_dir:_ ->
      print_rows ~title:"CUP over different structured overlays (Section 2.2)"
        ~columns:
          [ "overlay"; "policy"; "total"; "miss cost"; "misses"; "miss latency" ]
        (fun c ->
          c.labels
          @ ints [ "total"; "miss"; "misses" ] c
          @ [ Table.cell_float ~decimals:1 (one_way c) ]))

let techniques =
  single "techniques" "Section 3.6 propagation-overhead techniques"
    (fun scale ->
      {
        base =
          {
            (base_scenario scale) with
            replicas_per_key = 10;
            query_rate = List.nth (rates scale) 1;
          };
        axes =
          [
            ( "technique",
              [
                ("per-replica refreshes (Table 3 baseline)", Fun.id);
                ( "batched refreshes, 5 s window",
                  fun cfg -> { cfg with Scenario.refresh_batch_window = 5. } );
                ( "batched refreshes, 30 s window",
                  fun cfg -> { cfg with Scenario.refresh_batch_window = 30. } );
                ( "suppress half the refreshes",
                  fun cfg -> { cfg with Scenario.refresh_sample = 0.5 } );
                ( "suppress 3/4 of the refreshes",
                  fun cfg -> { cfg with Scenario.refresh_sample = 0.25 } );
                ( "piggybacked clear-bits",
                  fun cfg -> { cfg with Scenario.piggyback_clear_bits = true } );
              ] );
          ];
        metrics = [ total; overhead; miss; misses; justified ];
      })
    (fun _ ~csv_dir:_ ->
      print_rows
        ~title:
          "Section 3.6 techniques: reducing propagation overhead (10 replicas)"
        ~columns:
          [
            "technique"; "total"; "overhead"; "miss cost"; "misses";
            "justified %";
          ]
        (fun c ->
          c.labels
          @ ints [ "total"; "overhead"; "miss"; "misses" ] c
          @ [ Table.cell_float ~decimals:1 (value "justified" c) ]))

(* The authority's neighbour count, read from the finished run: these
   runs have no churn, so the overlay is the one the run started
   with. *)
let fanout live =
  let key = Runner.Live.key_of_index live 0 in
  let neighbors = Cup_overlay.Net.neighbors (Runner.Live.network live) in
  max 1 (List.length (neighbors (Runner.Live.authority_of live key)))

let model =
  single "model" "Section 3.1 model vs simulation"
    (fun scale ->
      {
        (* steady state: the model assumes queries keep arriving, so
           drop the drain period whose refreshes are unjustified by
           construction *)
        base =
          Scenario.with_policy
            { (base_scenario scale) with drain = 0. }
            (Policy.Push_level 1);
        (* rates spanning the regime where P(justified) actually
           varies: subtree_rate * lifetime from ~0.4 to ~75 *)
        axes = [ rate_axis [ 0.005; 0.01; 0.02; 0.05; 0.1; 0.25; 1. ] ];
        metrics =
          [
            ("fanout", fun live _ -> float_of_int (fanout live));
            justified;
            ( "model",
              fun live _ ->
                let cfg = Runner.Live.scenario live in
                100.
                *. Analysis.justified_probability
                     ~subtree_rate:
                       (cfg.query_rate /. float_of_int (fanout live))
                     ~window:cfg.replica_lifetime );
          ];
      })
    (fun _ ~csv_dir:_ ->
      print_rows
        ~title:"Model vs simulation: justified-update probability at level 1"
        ~columns:[ "rate (q/s)"; "authority fanout"; "measured %"; "model %" ]
        (fun c ->
          c.labels @ ints [ "fanout" ] c
          @ List.map
              (fun n -> Table.cell_float ~decimals:1 (value n c))
              [ "justified"; "model" ]))

let justification =
  let std = Policy.to_string Policy.Standard_caching in
  single "justification" "Section 3.1 justified-update accounting"
    (fun scale ->
      {
        base = base_scenario scale;
        axes =
          [
            rate_axis [ List.hd (rates scale); List.nth (rates scale) 2 ];
            (* standard caching is each rate's saved-miss reference *)
            policy_axis
              [
                Policy.Standard_caching;
                Policy.All_out;
                Policy.second_chance;
                Policy.Linear 0.01;
              ];
          ];
        metrics =
          [
            miss;
            overhead;
            justified;
            ("tracked", fun _ r -> float_of_int r.tracked_updates);
          ];
      })
    (fun _ ~csv_dir:_ cells ->
      print_rows
        ~title:"Section 3.1 check: justified updates vs realized saved/overhead"
        ~columns:
          [ "policy"; "rate (q/s)"; "justified %"; "tracked"; "saved/overhead" ]
        (fun c ->
          let rate = List.hd c.labels in
          let reference = find cells [ rate; std ] in
          [
            List.nth c.labels 1;
            rate;
            Table.cell_float ~decimals:1 (value "justified" c);
            Table.cell_int (count "tracked" c);
            Table.cell_float
              (float_of_int (count "miss" reference - count "miss" c)
              /. float_of_int (Stdlib.max 1 (count "overhead" c)));
          ])
        (List.filter (fun c -> List.nth c.labels 1 <> std) cells))

let experiments =
  [
    fig3; fig4; table1; table2; table3; fig5; fig6; ablations; overlays;
    techniques; model; justification;
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
  (* A grid name stands for one grid, so each runs once per call:
     table1 reads the push-level grids fig3 and fig4 ran. *)
  let ran = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if List.mem e.name selected then begin
        section e.title;
        List.iter
          (fun (name, grid) ->
            if not (Hashtbl.mem ran name) then
              Hashtbl.add ran name (run_grid ?pool grid))
          (e.grids scale);
        e.render scale ~csv_dir (Hashtbl.find ran)
      end)
    experiments

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

let headline = [ total; miss; misses; latency ]

(* Moments accumulate in seed order, independent of the pool's
   scheduling. *)
let replicated_of cells =
  let moments name =
    let w = Cup_metrics.Welford.create () in
    List.iter (fun c -> Cup_metrics.Welford.add w (value name c)) cells;
    (Cup_metrics.Welford.mean w, Cup_metrics.Welford.stddev w)
  in
  let total_mean, total_stddev = moments "total" in
  let miss_mean, miss_stddev = moments "miss" in
  let misses_mean, misses_stddev = moments "misses" in
  let latency_mean, latency_stddev = moments "latency" in
  {
    runs = List.length cells;
    total_mean;
    total_stddev;
    miss_mean;
    miss_stddev;
    misses_mean;
    misses_stddev;
    latency_mean;
    latency_stddev;
  }

let seeds (cfg : Scenario.t) ~runs = List.init runs (fun i -> cfg.seed + i)

let replicate ?pool cfg ~runs =
  if runs < 1 then invalid_arg "Experiments.replicate: runs must be >= 1";
  replicated_of
    (run_grid ?pool
       {
         base = cfg;
         axes =
           [
             axis "seed" string_of_int
               (fun cfg seed -> { cfg with Scenario.seed })
               (seeds cfg ~runs);
           ];
         metrics = headline;
       })

(* Its own fan-out: a run's registry must be attached before the run
   starts, and a grid metric reads the run only after it finishes. *)
let replicate_metrics ?pool cfg ~runs =
  if runs < 1 then
    invalid_arg "Experiments.replicate_metrics: runs must be >= 1";
  let run seed =
    let live = Runner.Live.create { cfg with Scenario.seed } in
    let registry = Cup_metrics.Registry.create () in
    Runner.Live.set_metrics live (Some registry);
    let r = Runner.Live.finish live in
    ( { labels = [ string_of_int seed ]; values = measure headline live r },
      registry )
  in
  let observed =
    match pool with
    | None -> List.map run (seeds cfg ~runs)
    | Some pool -> Pool.map pool run (seeds cfg ~runs)
  in
  (* Merge in seed order: [Registry.merge] is exact (counters sum, bin
     counts add), so the merged exposition is byte-identical across
     job counts. *)
  let merged =
    List.fold_left
      (fun acc (_, registry) -> Cup_metrics.Registry.merge acc registry)
      (Cup_metrics.Registry.create ())
      observed
  in
  (replicated_of (List.map fst observed), merged)
