(* Run one benchmark workload on one seed.

     cupbench --workload NAME --seed N --seconds S --trace 0|1
              [--digests FILE] [--out DIR]
     cupbench --pin --workload NAME --seed N

   Untraced (--trace 0): repeat the workload for about S seconds, with
   the reference kernel of {!Calib} before each repetition, and print
   every repetition's host times, every kernel time and the simulated
   results.
   Traced (--trace 1): the per-layer measurements of {!Layers}.  Either
   way the last line is one JSON record; run.py turns it into the
   benchmark's result line.  Every repetition is checked against the
   pinned digest for (workload, seed) when one exists, against the
   other repetitions, and against the invariants in {!Sim}.  With
   --pin, print the digest line to pin instead. *)

let min_reps = 3

(* setup_s is the median of at least this many set-ups when they are
   cheap: extra set-up-only calls fill in, within a tenth of the run.
   Each starts after a full collection, like a timed repetition, so that
   all samples see the same heap state. *)
let setup_samples = 31

module Json = Cup_obs.Json

let num f = if Float.is_finite f then Json.Float f else Json.Null

(* {1 Correctness} *)

let load_pins path =
  let pins = Hashtbl.create 256 in
  In_channel.with_open_text path (fun ic ->
      In_channel.input_all ic |> String.split_on_char '\n'
      |> List.iter (fun line ->
             match String.split_on_char '\t' line with
             | [ name; seed; digest ] ->
                 Hashtbl.replace pins (name, int_of_string seed) digest
             | _ -> ()));
  pins

let check pins (w : Workloads.t) ~seed (rep : Sim.rep) =
  let pinned =
    match Hashtbl.find_opt pins (w.name, seed) with
    | Some d when d <> Sim.digest rep ->
        [ Printf.sprintf "digest %s, pinned %s" (Sim.digest rep) d ]
    | Some _ | None -> []
  in
  pinned @ rep.problems

let peak_rss_mb () =
  float_of_int (Cup_obs.Resource.snapshot ()).peak_rss_bytes /. 1048576.

(* {1 Modes} *)

(* A pinned seed, run untimed before the timed repetitions: every run
   then checks at least one pinned digest even when its own seed is not
   pinned, and the timed repetitions start in a warm process. *)
let reference_seed seed = ((seed mod 32) + 32) mod 32

let untraced pins (w : Workloads.t) ~seed ~seconds ~trace_path =
  let reps = ref [] and failures = ref [] and rep_times = ref [] in
  let attempt ~seed ~keep =
    match Sim.run ~trace_path w ~seed with
    | rep -> (
        match check pins w ~seed rep with
        | [] -> if keep then reps := rep :: !reps
        | problems -> failures := (Some rep, problems) :: !failures)
    | exception e -> failures := (None, [ Printexc.to_string e ]) :: !failures
  in
  (* The peak is that of one repetition in a fresh process: later ones
     land on a heap the earlier ones fragmented, and their peaks wander. *)
  attempt ~seed ~keep:false;
  let peak_rss_mb = peak_rss_mb () in
  attempt ~seed:(reference_seed seed) ~keep:false;
  (* The reference kernel runs before every repetition and once after
     the last set-up probe. *)
  let calib = ref [] in
  let t0 = Sim.now () in
  let next_fits () =
    let n = List.length !rep_times in
    n < min_reps
    || Sim.seconds_since t0 +. Layers.median !rep_times <= seconds
  in
  while next_fits () do
    let r0 = Sim.now () in
    calib := Calib.measure () :: !calib;
    Gc.full_major ();
    attempt ~seed ~keep:true;
    rep_times := Sim.seconds_since r0 :: !rep_times
  done;
  let reps = List.rev !reps and failures = List.rev !failures in
  let setups = ref (List.map (fun (r : Sim.rep) -> r.setup_s) reps) in
  let p0 = Sim.now () in
  while
    List.length !setups < setup_samples
    && Sim.seconds_since p0 +. Layers.median !setups <= 0.1 *. seconds
  do
    Gc.full_major ();
    setups := Sim.setup_only w ~seed :: !setups
  done;
  calib := Calib.measure () :: !calib;
  let digests = List.sort_uniq compare (List.map Sim.digest reps) in
  let one = match reps with r :: _ -> Some r | [] -> None in
  let posted_per_rep =
    match (one, failures) with
    | Some r, _ -> r.posted
    | None, (Some r, _) :: _ -> r.posted
    | None, _ -> 1
  in
  let attempted = posted_per_rep * (List.length reps + List.length failures) in
  (* A repetition that fails a check counts all its queries as failed;
     repetitions that disagree with each other are all wrong.  Queries
     the simulated network leaves unanswered are a simulated outcome,
     reported in answered_query_frac, not a failure. *)
  let failures, failed =
    if List.length digests > 1 then
      ( failures @ [ (None, [ "repetitions disagree: " ^ String.concat " " digests ]) ],
        attempted )
    else (failures, posted_per_rep * List.length failures)
  in
  let samples name f = (name, Json.List (List.map (fun r -> num (f r)) reps)) in
  let value name f =
    (name, match one with Some r -> num (f r) | None -> Json.Null)
  in
  Json.Obj
    [
      ("mode", Json.String "untraced");
      ("reference_seed", Json.Int (reference_seed seed));
      ("reps", Json.Int (List.length reps));
      ("calib_reference_s", Json.Float Calib.reference_s);
      ( "samples",
        Json.Obj
          [
            ("setup_s", Json.List (List.rev_map num !setups));
            ("calib_s", Json.List (List.rev_map num !calib));
            samples "wall_s" (fun r -> r.wall_s);
            samples "events_per_s" (fun r -> float_of_int r.events /. r.wall_s);
          ] );
      ( "values",
        Json.Obj
          [
            ("peak_rss_mb", num peak_rss_mb);
            value "cost_per_query_hops" (fun r ->
                float_of_int r.total_cost /. float_of_int r.posted);
            value "miss_latency_hops" (fun r -> r.miss_latency);
            value "answered_query_frac" (fun r ->
                float_of_int r.answered /. float_of_int r.posted);
          ] );
      ( "digest",
        match one with Some r -> Json.String (Sim.digest r) | None -> Json.Null );
      ( "problems",
        Json.List
          (List.concat_map (fun (_, ps) -> List.map (fun p -> Json.String p) ps) failures) );
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
    ]

let traced pins (w : Workloads.t) ~seed ~trace_path =
  let o =
    Layers.measure w ~seed ~trace_path ~check:(fun ~seed rep ->
        check pins w ~seed rep)
  in
  Json.Obj
    [
      ("mode", Json.String "traced");
      ("layers", Json.Obj (List.map (fun (k, v) -> (k, num v)) o.layers));
      ("digest", Json.String o.digest);
      ("holdout_seed", Json.Int o.holdout_seed);
      ("holdout_digest", Json.String o.holdout_digest);
      ("problems", Json.List (List.map (fun p -> Json.String p) o.problems));
      ("attempted", Json.Int 1);
      ("failed", Json.Int (if o.problems = [] then 0 else 1));
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and pin = ref false in
  let digests = ref "perfbench/digests.tsv" and out = ref ".perfbench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced or per-layer run");
      ("--digests", Arg.Set_string digests, "FILE pinned digests");
      ("--out", Arg.Set_string out, "DIR scratch directory for trace files");
      ("--pin", Arg.Set pin, " print the digest line to pin");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "cupbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
        prerr_endline ("cupbench: unknown workload " ^ !workload);
        exit 2
  in
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  let trace_path =
    Filename.concat !out (Printf.sprintf "%s-%d.ctrace" w.name !seed)
  in
  if !pin then
    let rep = Sim.run ~trace_path w ~seed:!seed in
    match rep.problems with
    | [] -> Printf.printf "%s\t%d\t%s\n" w.name !seed (Sim.digest rep)
    | ps ->
        List.iter prerr_endline ps;
        exit 1
  else
    let pins = load_pins !digests in
    let record =
      if !trace = 0 then untraced pins w ~seed:!seed ~seconds:!seconds ~trace_path
      else traced pins w ~seed:!seed ~trace_path
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("workload", Json.String w.name);
              ("seed", Json.Int !seed);
              ("ocaml", Json.String Sys.ocaml_version);
              ("pinned", Json.Bool (Hashtbl.mem pins (w.name, !seed)));
              ("record", record);
            ]))
