(* Tests for Cup_workload: query arrivals, replica lifecycles, fault
   schedules, and churn streams. *)

module Query_gen = Cup_workload.Query_gen
module Replica_gen = Cup_workload.Replica_gen
module Fault_gen = Cup_workload.Fault_gen
module Churn_gen = Cup_workload.Churn_gen
module Rng = Cup_prng.Rng
module Time = Cup_dess.Time

let rng () = Rng.create ~seed:1234

(* {1 Query generator} *)

type arrival = { at : Time.t; key_index : int; node_index : int }

let drain_queries g =
  Query_gen.fold g ~init:[] ~f:(fun acc g ->
      {
        at = Query_gen.at g;
        key_index = Query_gen.key_index g;
        node_index = Query_gen.node_index g;
      }
      :: acc)
  |> List.rev

let test_queries_within_window_and_increasing () =
  let g =
    Query_gen.create ~rng:(rng ()) ~rate:5. ~start:(Time.of_seconds 100.)
      ~stop:(Time.of_seconds 200.) ~nodes:16 ~key_dist:(Query_gen.Uniform 4)
  in
  let events = drain_queries g in
  Alcotest.(check bool) "nonempty" true (events <> []);
  let last = ref (Time.of_seconds 100.) in
  List.iter
    (fun (e : arrival) ->
      if Time.(e.at <= !last) then Alcotest.fail "times must increase";
      if Time.(e.at > Time.of_seconds 200.) then
        Alcotest.fail "event past stop";
      if e.key_index < 0 || e.key_index >= 4 then
        Alcotest.fail "key out of range";
      if e.node_index < 0 || e.node_index >= 16 then
        Alcotest.fail "node out of range";
      last := e.at)
    events

let test_queries_rate_approximates () =
  let g =
    Query_gen.create ~rng:(rng ()) ~rate:10. ~start:Time.zero
      ~stop:(Time.of_seconds 1000.) ~nodes:4 ~key_dist:(Query_gen.Uniform 2)
  in
  let n = List.length (drain_queries g) in
  (* Poisson(10 * 1000): 5 sigma corridor *)
  if abs (n - 10_000) > 500 then
    Alcotest.failf "arrival count implausible: %d" n

let test_queries_fixed_key () =
  let g =
    Query_gen.create ~rng:(rng ()) ~rate:5. ~start:Time.zero
      ~stop:(Time.of_seconds 100.) ~nodes:4 ~key_dist:(Query_gen.Fixed 3)
  in
  List.iter
    (fun (e : arrival) ->
      Alcotest.(check int) "fixed key" 3 e.key_index)
    (drain_queries g)

let test_queries_zipf_skew () =
  let g =
    Query_gen.create ~rng:(rng ()) ~rate:20. ~start:Time.zero
      ~stop:(Time.of_seconds 1000.) ~nodes:4
      ~key_dist:(Query_gen.Zipf (100, 1.2))
  in
  let counts = Array.make 100 0 in
  List.iter
    (fun (e : arrival) ->
      counts.(e.key_index) <- counts.(e.key_index) + 1)
    (drain_queries g);
  Alcotest.(check bool) "rank 0 dominates rank 50" true
    (counts.(0) > 5 * Stdlib.max 1 counts.(50))

(* The first 1,000 arrivals of two generators, each as time (hex
   float), node and key.  The digests were taken from the generator
   before it became a cursor: an arrival draws its gap, then its node,
   then its key, and every pinned run depends on that order. *)
let arrivals_digest g =
  let b = Buffer.create 32_000 in
  for _ = 1 to 1000 do
    if Query_gen.next g then
      Printf.bprintf b "%h %d %d\n" (Query_gen.at g) (Query_gen.node_index g)
        (Query_gen.key_index g)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_queries_pinned () =
  let gen ~seed ~rate ~nodes key_dist =
    Query_gen.create ~rng:(Rng.create ~seed) ~rate ~start:Time.zero
      ~stop:(Time.of_seconds 1e9) ~nodes ~key_dist
  in
  Alcotest.(check string)
    "uniform" "32b843dd7f8ee5e23233bf69d3146774"
    (arrivals_digest (gen ~seed:2024 ~rate:5. ~nodes:4096 (Query_gen.Uniform 64)));
  Alcotest.(check string)
    "zipf" "cecd799f83515b602033517905a40ddc"
    (arrivals_digest
       (gen ~seed:2025 ~rate:20. ~nodes:1024 (Query_gen.Zipf (1024, 1.0))))

let test_queries_validation () =
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Query_gen.create: rate must be > 0") (fun () ->
      ignore
        (Query_gen.create ~rng:(rng ()) ~rate:0. ~start:Time.zero
           ~stop:Time.zero ~nodes:1 ~key_dist:(Query_gen.Uniform 1)))

(* {1 Replica generator} *)

let drain_replicas g = Replica_gen.fold g ~init:[] ~f:(fun acc e -> e :: acc) |> List.rev

let test_replicas_births_then_refreshes () =
  let g =
    Replica_gen.create ~rng:(rng ()) ~keys:2 ~replicas_per_key:3 ~lifetime:100.
      ~stop:(Time.of_seconds 500.) ()
  in
  let events = drain_replicas g in
  let births =
    List.filter (fun (e : Replica_gen.event) -> e.kind = Replica_gen.Birth) events
  in
  Alcotest.(check int) "one birth per replica" 6 (List.length births);
  List.iter
    (fun (e : Replica_gen.event) ->
      if Time.(e.at > Time.of_seconds 100.) then
        Alcotest.fail "births staggered within the first lifetime")
    births;
  (* per-replica refresh spacing equals the lifetime *)
  let by_replica = Hashtbl.create 8 in
  List.iter
    (fun (e : Replica_gen.event) ->
      let prev = Hashtbl.find_opt by_replica e.replica in
      (match prev with
      | Some p ->
          Alcotest.(check (float 1e-6)) "refresh at expiration" 100.
            (Time.diff e.at p)
      | None -> ());
      Hashtbl.replace by_replica e.replica e.at)
    events

let test_replicas_time_ordered () =
  let g =
    Replica_gen.create ~rng:(rng ()) ~keys:5 ~replicas_per_key:4 ~lifetime:50.
      ~stop:(Time.of_seconds 300.) ()
  in
  let last = ref Time.zero in
  List.iter
    (fun (e : Replica_gen.event) ->
      if Time.(e.at < !last) then Alcotest.fail "events must be ordered";
      last := e.at)
    (drain_replicas g)

let test_replicas_death_keeps_population () =
  let g =
    Replica_gen.create ~rng:(rng ()) ~keys:1 ~replicas_per_key:5 ~lifetime:10.
      ~stop:(Time.of_seconds 500.) ~death_prob:0.5 ()
  in
  let alive = Hashtbl.create 16 in
  List.iter
    (fun (e : Replica_gen.event) ->
      match e.kind with
      | Replica_gen.Birth -> Hashtbl.replace alive e.replica ()
      | Replica_gen.Death -> Hashtbl.remove alive e.replica
      | Replica_gen.Refresh -> ())
    (drain_replicas g);
  (* deaths and replacement births are simultaneous, so the population
     never drifts *)
  Alcotest.(check int) "population constant" 5 (Hashtbl.length alive)

let test_replicas_validation () =
  Alcotest.check_raises "bad death prob"
    (Invalid_argument "Replica_gen.create: death_prob must be in [0, 1]")
    (fun () ->
      ignore
        (Replica_gen.create ~rng:(rng ()) ~keys:1 ~replicas_per_key:1
           ~lifetime:1. ~stop:Time.zero ~death_prob:1.5 ()))

(* {1 Fault generator} *)

let drain_faults g =
  let rec go acc = match Fault_gen.next g with
    | None -> List.rev acc
    | Some e -> go (e :: acc)
  in
  go []

let test_fault_up_and_down_cycles () =
  let g =
    Fault_gen.up_and_down ~rng:(rng ()) ~nodes:100 ~fraction:0.2 ~reduced:0.25
      ~warmup:300. ~down:600. ~gap:300. ~stop:(Time.of_seconds 3300.)
  in
  let events = drain_faults g in
  (* cycle = 900s; warmup 300: degrade at 300, 1200, 2100, 3000 -> 4
     degrade events, restores at 900, 1800, 2700 (3600 is past stop) *)
  Alcotest.(check int) "event count" 7 (List.length events);
  let degrades =
    List.filter
      (fun (e : Fault_gen.event) ->
        List.for_all (fun c -> c.Fault_gen.capacity < 1.) e.changes)
      events
  in
  Alcotest.(check int) "degrade batches" 4 (List.length degrades);
  List.iter
    (fun (e : Fault_gen.event) ->
      Alcotest.(check int) "20% of 100 nodes" 20 (List.length e.changes))
    events

let test_fault_once_down () =
  let g =
    Fault_gen.once_down ~rng:(rng ()) ~nodes:50 ~fraction:0.2 ~reduced:0.
      ~warmup:300.
  in
  match drain_faults g with
  | [ e ] ->
      Alcotest.(check (float 1e-9)) "at warmup" 300. (Time.to_seconds e.at);
      Alcotest.(check int) "10 nodes" 10 (List.length e.changes);
      List.iter
        (fun c -> Alcotest.(check (float 1e-9)) "reduced to zero" 0. c.Fault_gen.capacity)
        e.changes
  | l -> Alcotest.failf "expected one event, got %d" (List.length l)

let test_fault_distinct_nodes_per_batch () =
  let g =
    Fault_gen.once_down ~rng:(rng ()) ~nodes:10 ~fraction:1.0 ~reduced:0.5
      ~warmup:0.
  in
  match drain_faults g with
  | [ e ] ->
      let idx = List.map (fun c -> c.Fault_gen.node_index) e.changes in
      Alcotest.(check int) "all nodes, no duplicates" 10
        (List.length (List.sort_uniq compare idx))
  | _ -> Alcotest.fail "expected one event"

(* {1 Crash generator} *)

(* Throughput guard: draining tens of thousands of crash/recover
   events must be effectively instant.  The recovery backlog is a
   FIFO queue; an accumulation that re-walks pending recoveries per
   crash (the old list-append implementation) turns this drain
   quadratic and blows far past the generous bound. *)
let test_crash_throughput () =
  let module Crash_gen = Cup_workload.Crash_gen in
  (* recover_after longer than the mean inter-crash gap keeps a deep
     pending-recovery backlog alive for the whole drain *)
  let g =
    Crash_gen.create ~rng:(rng ()) ~crash_rate:10. ~recover_after:500.
      ~start:Time.zero
      ~stop:(Time.of_seconds 1000.)
  in
  let t0 = Unix.gettimeofday () in
  let crashes = ref 0 and recovers = ref 0 and last = ref Time.zero in
  let rec go () =
    match Crash_gen.next g with
    | None -> ()
    | Some e ->
        if Time.(e.at < !last) then Alcotest.fail "events must be ordered";
        last := e.at;
        (match e.kind with
        | Crash_gen.Crash -> incr crashes
        | Crash_gen.Recover -> incr recovers);
        go ()
  in
  go ();
  let elapsed = Unix.gettimeofday () -. t0 in
  if abs (!crashes - 10_000) > 500 then
    Alcotest.failf "crash count off: %d" !crashes;
  if !recovers > !crashes then
    Alcotest.failf "more recoveries (%d) than crashes (%d)" !recovers !crashes;
  if !recovers = 0 then Alcotest.fail "expected some recoveries";
  if elapsed > 5. then
    Alcotest.failf "draining %d events took %.1fs" (!crashes + !recovers)
      elapsed

(* {1 Churn generator} *)

let test_churn_rates () =
  let g =
    Churn_gen.create ~rng:(rng ()) ~join_rate:0.1 ~leave_rate:0.1
      ~start:Time.zero ~stop:(Time.of_seconds 10_000.)
  in
  let joins = ref 0 and leaves = ref 0 and last = ref Time.zero in
  let rec go () =
    match Churn_gen.next g with
    | None -> ()
    | Some e ->
        if Time.(e.at < !last) then Alcotest.fail "churn must be ordered";
        last := e.at;
        (match e.kind with
        | Churn_gen.Join -> incr joins
        | Churn_gen.Leave -> incr leaves);
        go ()
  in
  go ();
  (* each ~Poisson(1000) *)
  if abs (!joins - 1000) > 200 then Alcotest.failf "joins off: %d" !joins;
  if abs (!leaves - 1000) > 200 then Alcotest.failf "leaves off: %d" !leaves

let test_churn_zero_rate_disables () =
  let g =
    Churn_gen.create ~rng:(rng ()) ~join_rate:0. ~leave_rate:0.
      ~start:Time.zero ~stop:(Time.of_seconds 1000.)
  in
  Alcotest.(check bool) "no events" true (Churn_gen.next g = None)

let () =
  Alcotest.run "cup_workload"
    [
      ( "query_gen",
        [
          Alcotest.test_case "window + ordering" `Quick
            test_queries_within_window_and_increasing;
          Alcotest.test_case "rate" `Quick test_queries_rate_approximates;
          Alcotest.test_case "fixed key" `Quick test_queries_fixed_key;
          Alcotest.test_case "zipf skew" `Quick test_queries_zipf_skew;
          Alcotest.test_case "first arrivals pinned" `Quick test_queries_pinned;
          Alcotest.test_case "validation" `Quick test_queries_validation;
        ] );
      ( "replica_gen",
        [
          Alcotest.test_case "births then refreshes" `Quick
            test_replicas_births_then_refreshes;
          Alcotest.test_case "time ordered" `Quick test_replicas_time_ordered;
          Alcotest.test_case "death keeps population" `Quick
            test_replicas_death_keeps_population;
          Alcotest.test_case "validation" `Quick test_replicas_validation;
        ] );
      ( "fault_gen",
        [
          Alcotest.test_case "up-and-down cycles" `Quick
            test_fault_up_and_down_cycles;
          Alcotest.test_case "once-down" `Quick test_fault_once_down;
          Alcotest.test_case "distinct nodes" `Quick
            test_fault_distinct_nodes_per_batch;
        ] );
      ( "crash_gen",
        [
          Alcotest.test_case "10k-crash throughput" `Quick
            test_crash_throughput;
        ] );
      ( "churn_gen",
        [
          Alcotest.test_case "rates" `Quick test_churn_rates;
          Alcotest.test_case "zero rate" `Quick test_churn_zero_rate_disables;
        ] );
    ]
