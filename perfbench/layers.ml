(* The traced run: per-layer numbers, measured from outside.

   One untraced and one traced repetition of the workload, the paired
   runs that compare two implementations of a layer (each must give the
   untraced digest), and isolated bechamel stages sized to the
   workload's own n, keys and queue depth.  A layer the workload does
   not exercise reports 0; README.md lists which layer each workload
   loads. *)

open Cup_sim
module Engine = Cup_dess.Engine
module Net = Cup_overlay.Net
module Rng = Cup_prng.Rng
module Query_gen = Cup_workload.Query_gen

(* Host nanoseconds per call of [f], from bechamel's OLS fit. *)
let ns_per_run name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let clock = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let results = Analyze.all ols clock (Benchmark.all cfg [ clock ] test) in
  Hashtbl.fold
    (fun _ o acc ->
      match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> acc)
    results 0.

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let per x n = if n = 0 then 0. else x /. float_of_int n

let label_us (p : Engine.profile option) label =
  match p with
  | None -> 0.
  | Some p -> (
      match List.assoc_opt label p.by_label with
      | Some { Engine.calls; host_seconds } -> per (host_seconds *. 1e6) calls
      | None -> 0.)

(* Engine hold model: [depth] pending no-op events; each measured call
   schedules one more at a random offset and runs one. *)
let push_pop_ns ~depth =
  if depth = 0 then 0.
  else begin
    let e = Engine.create () in
    let rng = Rng.create ~seed:depth in
    for _ = 1 to depth do
      ignore (Engine.schedule e ~at:(Rng.float rng) ignore)
    done;
    ns_per_run "engine push+pop" (fun () ->
        ignore (Engine.schedule_after e ~delay:(Rng.float rng) ignore);
        Engine.run ~max_events:1 e)
  end

let query_gen_ns ~seed ~rate ~nodes ~key_dist =
  let gen =
    Query_gen.create
      ~rng:(Rng.create ~seed)
      ~rate ~start:0. ~stop:1e18 ~nodes ~key_dist
  in
  ns_per_run "query_gen next" (fun () -> ignore (Query_gen.next gen))

(* Net.create alone (timed twice: route cache off, then on) and
   Net.next_hop over a fixed sample of (node, key) pairs. *)
let overlay_stages (sc : Scenario.t) =
  let create route_cache =
    Sim.timed (fun () ->
        Net.create
          ~rng:(Rng.substream (Rng.create ~seed:sc.seed) "topology")
          ~route_cache ~kind:sc.overlay ~n:sc.nodes ())
  in
  let cold, b1 = create false in
  let cached, b2 = create true in
  let ids = Array.of_list (Net.node_ids cold) in
  let keys = Scenario.total_keys sc in
  let rng = Rng.create ~seed:sc.seed in
  let pairs =
    Array.init 1024 (fun _ ->
        (Rng.choice rng ids, Cup_overlay.Key.of_int (Rng.int rng keys)))
  in
  let hop net =
    let i = ref 0 in
    fun () ->
      let node, key = pairs.(!i land 1023) in
      incr i;
      ignore (Net.next_hop net node key)
  in
  Array.iter (fun (node, key) -> ignore (Net.next_hop cached node key)) pairs;
  let cold_ns = ns_per_run "next_hop cold" (hop cold) in
  let cached_ns = ns_per_run "next_hop cached" (hop cached) in
  (median [ b1; b2 ], cold_ns, cached_ns)

type pair = Flat | Calendar | Attribution_off | Shards2

let pairs_of = function
  | "paper-can4k" -> [ Flat ]
  | "zipf-1k" -> [ Flat; Calendar ]
  | "faults-audited" -> [ Calendar; Attribution_off ]
  | "ring-1m" -> [ Shards2 ]
  | _ -> []

type outcome = {
  layers : (string * float) list;
  problems : string list;
  digest : string;
  holdout_seed : int;
  holdout_digest : string;
}

let gc_words () =
  let s = Gc.quick_stat () in
  (s.minor_words, s.major_collections)

let measure (w : Workloads.t) ~seed ~trace_path ~check =
  let problems = ref [] in
  let checked ?(seed = seed) what rep =
    List.iter
      (fun p -> problems := (what ^ ": " ^ p) :: !problems)
      (check ~seed rep);
    rep
  in
  let expect base what rep =
    ignore (checked what rep);
    if Sim.digest rep <> Sim.digest base then
      problems := (what ^ ": digest differs from the untraced run") :: !problems;
    rep.Sim.wall_s /. base.Sim.wall_s
  in
  (* The held-out seed goes first: it checks a second seed's output and
     warms the process up before anything is timed. *)
  let holdout_seed = seed + 1_000_000 in
  let holdout =
    checked ~seed:holdout_seed "holdout seed"
      (Sim.run ~trace_path w ~seed:holdout_seed)
  in
  Gc.full_major ();
  let minor0, major0 = gc_words () in
  let u = checked "untraced" (Sim.run ~trace_path w ~seed) in
  let minor1, major1 = gc_words () in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  Gc.full_major ();
  let shape = w.shape ~seed in
  let t =
    match shape with
    | Workloads.Runner_shape _ -> Sim.run ~variant:Sim.traced ~trace_path w ~seed
    | Scale_shape cfg ->
        let seen = ref 0 in
        let t = Sim.run_scale ~tracer:(fun _ -> incr seen) cfg in
        if !seen <> t.events then
          problems :=
            Printf.sprintf "traced: %d records for %d events" !seen t.events
            :: !problems;
        t
  in
  let traced_ratio = expect u "traced" t in
  let pair p =
    Gc.full_major ();
    let run_variant sc =
      Sim.run_runner ~observed:w.observed ~trace_path Sim.untraced sc
    in
    match (p, shape) with
    | Flat, Runner_shape sc ->
        ("proto.flat_over_map_wall", expect u "flat" (run_variant { sc with flat_node_state = true }))
    | Calendar, Runner_shape sc ->
        ( "dess.calendar_over_heap_wall",
          expect u "calendar"
            (run_variant { sc with scheduler = Some `Calendar }) )
    | Attribution_off, Runner_shape sc ->
        let off =
          Sim.run_runner ~observed:w.observed ~trace_path
            { Sim.untraced with attribution = false }
            sc
        in
        ("metrics.attribution_on_over_off_wall", 1. /. expect u "attribution off" off)
    | Shards2, Scale_shape cfg ->
        ( "scale.shards1_over_shards2_wall",
          1. /. expect u "shards 2" (Sim.run_scale { cfg with shards = 2 }) )
    | _ -> ("", 0.)
  in
  let paired = List.map pair (pairs_of w.name) in
  let paired name = Option.value ~default:0. (List.assoc_opt name paired) in
  let build_s, cold_ns, cached_ns, gen_ns =
    match shape with
    | Runner_shape sc ->
        let build_s, cold_ns, cached_ns = overlay_stages sc in
        let key_dist =
          let keys = Scenario.total_keys sc in
          match sc.key_dist with
          | `Zipf s -> Query_gen.Zipf (keys, s)
          | `Uniform -> Query_gen.Uniform keys
        in
        ( build_s, cold_ns, cached_ns,
          query_gen_ns ~seed ~rate:sc.query_rate ~nodes:sc.nodes ~key_dist )
    | Scale_shape cfg ->
        let ring, build_s =
          Sim.timed (fun () -> Cup_overlay.Ring.create ~n:cfg.nodes)
        in
        let rng = Rng.create ~seed in
        let pairs =
          Array.init 1024 (fun _ ->
              ( Rng.int rng cfg.nodes,
                Cup_overlay.Ring.owner ring (Rng.int rng cfg.keys) ))
        in
        let i = ref 0 in
        let hop_ns =
          ns_per_run "ring next_hop" (fun () ->
              let node, target = pairs.(!i land 1023) in
              incr i;
              ignore (Cup_overlay.Ring.next_hop ring ~node ~target))
        in
        ( build_s, hop_ns, hop_ns,
          query_gen_ns ~seed ~rate:cfg.rate ~nodes:cfg.nodes
            ~key_dist:(Query_gen.Zipf (cfg.keys, cfg.zipf)) )
  in
  let high_water =
    match t.profile with Some p -> p.heap_high_water | None -> 0
  in
  let late_over_early =
    match t.quarters with
    | [| (s1, e1); _; _; (s4, e4) |] when e1 > 0 && e4 > 0 ->
        per s4 e4 /. per s1 e1
    | _ -> 0.
  in
  let o = t.obs in
  let windows, live_slots, dropped =
    match t.scale with
    | Some r -> (r.windows, r.live_slots, r.dropped_at_horizon)
    | None -> (0, 0, 0)
  in
  let layers =
    [
      ("bench.traced_over_untraced_wall", traced_ratio);
      ("overlay.build_s", build_s);
      ("overlay.next_hop_cold_ns", cold_ns);
      ("overlay.next_hop_cached_ns", cached_ns);
      ( "overlay.route_cache_hit_ratio",
        per (float_of_int u.cache_hits) (u.cache_hits + u.cache_misses) );
      ("overlay.churn_ms_per_crash", label_us t.profile "pump.crash" /. 1000.);
      ("workload.query_gen_ns", gen_ns);
      ("dess.events", float_of_int (if t.scale = None then t.events else 0));
      ("dess.heap_high_water", float_of_int high_water);
      ("dess.push_pop_ns", push_pop_ns ~depth:high_water);
      ("dess.calendar_over_heap_wall", paired "dess.calendar_over_heap_wall");
      ("runner.deliver_update_us", label_us t.profile "deliver.update");
      ("runner.deliver_query_us", label_us t.profile "deliver.query");
      ("runner.pump_query_us", label_us t.profile "pump.query");
      ("runner.deliver_clear_bit_us", label_us t.profile "deliver.clear_bit");
      ("runner.repair_check_us", label_us t.profile "repair.check");
      ("runner.late_over_early_us_per_event", late_over_early);
      ("proto.justified_frac", per (float_of_int u.justified) u.tracked);
      ("proto.flat_over_map_wall", paired "proto.flat_over_map_wall");
      ("obs.audit_us_per_event", per (o.audit_s *. 1e6) o.emitted);
      ("obs.trace_emit_us_per_event", per (o.trace_emit_s *. 1e6) o.emitted);
      ("obs.trace_bytes_per_event", per (float_of_int o.trace_bytes) o.emitted);
      ("obs.trace_close_s", o.trace_close_s);
      ( "obs.analyze_events_per_s",
        if o.analyze_s > 0. then float_of_int o.analyzed /. o.analyze_s else 0. );
      ( "metrics.attribution_on_over_off_wall",
        paired "metrics.attribution_on_over_off_wall" );
      ("gc.minor_words_per_event", per (minor1 -. minor0) u.events);
      ("gc.major_collections", float_of_int (major1 - major0));
      ("gc.heap_mb_end", heap_mb);
      ("scale.windows", float_of_int windows);
      ("scale.live_slots", float_of_int live_slots);
      ("scale.dropped_at_horizon", float_of_int dropped);
      ("scale.shards1_over_shards2_wall", paired "scale.shards1_over_shards2_wall");
    ]
  in
  {
    layers;
    problems = List.rev !problems;
    digest = Sim.digest u;
    holdout_seed;
    holdout_digest = Sim.digest holdout;
  }
