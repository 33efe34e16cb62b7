(* Tests for Cup_dess: the event heap and the simulation engine. *)

module Heap = Cup_dess.Event_heap
module Engine = Cup_dess.Engine
module Time = Cup_dess.Time
module Window_sync = Cup_dess.Window_sync

(* {1 Time} *)

let test_time_arithmetic () =
  let t = Time.of_seconds 10. in
  Alcotest.(check (float 1e-9)) "add" 12.5 (Time.to_seconds (Time.add t 2.5));
  Alcotest.(check (float 1e-9)) "diff" 2.5 (Time.diff (Time.add t 2.5) t);
  Alcotest.(check bool) "compare" true Time.(t < Time.add t 1.);
  Alcotest.(check bool) "infinity not finite" false
    (Time.is_finite Time.infinity)

(* Stdlib's comparisons and [min]/[max] bound at a type variable, so
   they stay the generic [compare]-based versions that [Time] replaced. *)
let poly_lt : 'a -> 'a -> bool = Stdlib.( < )
let poly_le : 'a -> 'a -> bool = Stdlib.( <= )
let poly_gt : 'a -> 'a -> bool = Stdlib.( > )
let poly_ge : 'a -> 'a -> bool = Stdlib.( >= )
let poly_min : 'a -> 'a -> 'a = Stdlib.min
let poly_max : 'a -> 'a -> 'a = Stdlib.max

(* The float primitives agree with the polymorphic operators on every
   pair, NaNs, infinities and signed zeros included; [min] and [max]
   return the same bits, so ties and NaNs pick the same argument. *)
let test_time_matches_stdlib () =
  let values =
    [
      Float.nan;
      -.Float.nan;
      Float.infinity;
      Float.neg_infinity;
      0.;
      -0.;
      1.;
      -1.;
      2.5;
      Float.min_float;
      Float.max_float;
      Float.epsilon;
    ]
  in
  let bits = Int64.bits_of_float in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let case op = Printf.sprintf "%h %s %h" a op b in
          Alcotest.(check bool) (case "<") (poly_lt a b) Time.(a < b);
          Alcotest.(check bool) (case "<=") (poly_le a b) Time.(a <= b);
          Alcotest.(check bool) (case ">") (poly_gt a b) Time.(a > b);
          Alcotest.(check bool) (case ">=") (poly_ge a b) Time.(a >= b);
          Alcotest.(check int64) (case "min")
            (bits (poly_min a b))
            (bits (Time.min a b));
          Alcotest.(check int64) (case "max")
            (bits (poly_max a b))
            (bits (Time.max a b)))
        values)
    values

(* {1 Event heap} *)

(* The earliest live event and its time, read the way the engine
   reads it. *)
let pop q =
  if Heap.is_empty q then None
  else begin
    let time = Heap.top_time q in
    Some (time, Heap.take_top q)
  end

let drain q =
  let rec go acc =
    match pop q with
    | None -> List.rev acc
    | Some (t, v) -> go ((t, v) :: acc)
  in
  go []

let test_orders_by_time () =
  let h = Heap.create () in
  List.iter
    (fun (t, v) -> ignore (Heap.push h ~time:(Time.of_seconds t) v))
    [ (5., "e"); (1., "a"); (3., "c"); (2., "b"); (4., "d") ];
  Alcotest.(check (list string))
    "sorted pop order"
    [ "a"; "b"; "c"; "d"; "e" ]
    (List.map snd (drain h))

let test_fifo_on_ties () =
  let h = Heap.create () in
  let t = Time.of_seconds 1. in
  List.iter (fun v -> ignore (Heap.push h ~time:t v)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int))
    "equal timestamps pop in insertion order" [ 1; 2; 3; 4; 5 ]
    (List.map snd (drain h))

let test_cancel () =
  let h = Heap.create () in
  let _a = Heap.push h ~time:(Time.of_seconds 1.) "a" in
  let b = Heap.push h ~time:(Time.of_seconds 2.) "b" in
  let _c = Heap.push h ~time:(Time.of_seconds 3.) "c" in
  Alcotest.(check bool) "cancel succeeds" true (Heap.cancel h b);
  Alcotest.(check bool) "second cancel fails" false (Heap.cancel h b);
  Alcotest.(check int) "live count" 2 (Heap.length h);
  Alcotest.(check (list string)) "b skipped" [ "a"; "c" ]
    (List.map snd (drain h))

let test_cancel_root () =
  let h = Heap.create () in
  let a = Heap.push h ~time:(Time.of_seconds 1.) "a" in
  ignore (Heap.push h ~time:(Time.of_seconds 2.) "b");
  ignore (Heap.cancel h a);
  Alcotest.(check (float 1e-9)) "top skips cancelled root" 2.
    (Time.to_seconds (Heap.top_time h));
  (* reading the top discarded the tombstone; cancelling it again
     still reports failure rather than double-counting *)
  Alcotest.(check bool) "cancel after top discarded it" false
    (Heap.cancel h a);
  Alcotest.(check int) "one live event left" 1 (Heap.length h)

let test_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.check_raises "top_time empty"
    (Invalid_argument "Event_heap: no pending event") (fun () ->
      ignore (Heap.top_time h));
  Alcotest.check_raises "take_top empty"
    (Invalid_argument "Event_heap: no pending event") (fun () ->
      ignore (Heap.take_top h))

let test_interleaved_push_pop () =
  let h = Heap.create () in
  ignore (Heap.push h ~time:(Time.of_seconds 10.) 10);
  ignore (Heap.push h ~time:(Time.of_seconds 5.) 5);
  (match pop h with
  | Some (_, 5) -> ()
  | _ -> Alcotest.fail "expected 5 first");
  ignore (Heap.push h ~time:(Time.of_seconds 1.) 1);
  (match pop h with
  | Some (_, 1) -> ()
  | _ -> Alcotest.fail "expected 1 next");
  match pop h with
  | Some (_, 10) -> ()
  | _ -> Alcotest.fail "expected 10 last"

let test_length_interleaved_cancel_pop () =
  let h = Heap.create () in
  let handles =
    List.map
      (fun i -> Heap.push h ~time:(Time.of_seconds (float_of_int i)) i)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check int) "all live" 5 (Heap.length h);
  ignore (Heap.cancel h (List.nth handles 1));
  Alcotest.(check int) "one cancelled" 4 (Heap.length h);
  (match pop h with
  | Some (_, 1) -> ()
  | _ -> Alcotest.fail "expected 1 first");
  Alcotest.(check int) "after pop" 3 (Heap.length h);
  ignore (Heap.cancel h (List.nth handles 2));
  Alcotest.(check int) "second cancel" 2 (Heap.length h);
  (* cancelling the already-popped head fails and leaves the count *)
  Alcotest.(check bool) "cancel popped event fails" false
    (Heap.cancel h (List.nth handles 0));
  Alcotest.(check int) "count unchanged" 2 (Heap.length h);
  Alcotest.(check (list int)) "survivors pop in order" [ 4; 5 ]
    (List.map snd (drain h));
  Alcotest.(check int) "drained" 0 (Heap.length h)

let test_all_cancelled_reports_empty () =
  let h = Heap.create () in
  let handles =
    List.map
      (fun i -> Heap.push h ~time:(Time.of_seconds (float_of_int i)) i)
      [ 3; 1; 2 ]
  in
  List.iter (fun handle -> ignore (Heap.cancel h handle)) handles;
  Alcotest.(check int) "length 0" 0 (Heap.length h);
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.check_raises "no top left"
    (Invalid_argument "Event_heap: no pending event") (fun () ->
      ignore (Heap.top_time h))

(* Seventeen pushes, ten of them tied at 0 and two pairs tied later,
   must pop in (time, insertion) order.  [82.5 /. 7.] is a bucket width
   at which [82.5 /. width] falls just below 7 while [7. *. width]
   rounds to exactly 82.5; this script once caught a bucketed queue
   placing an event on that boundary in the wrong window. *)
let test_bucket_boundary () =
  let h = Heap.create () in
  let times =
    [ 97.5; 0.; 0.; 97.5; 0.; 82.5; 72.5; 0.; 0.; 70.; 0.; 0.; 95.; 82.5;
      0.; 0.; 0. ]
  in
  List.iteri (fun i t -> ignore (Heap.push h ~time:(Time.of_seconds t) i)) times;
  let expected =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (List.mapi (fun i t -> (t, i)) times)
  in
  Alcotest.(check (list (pair (float 0.) int)))
    "(time, insertion) order" expected (drain h)

(* Pushes [n] events whose values each hold a 100 kB buffer, cancels
   every fifth, drains the queue and returns weak pointers to the
   buffers.  Kept out of line so that no stack slot of the caller
   still points at a buffer when it collects. *)
let[@inline never] fill_and_drain h n =
  let weak = Weak.create n in
  let handles =
    List.init n (fun i ->
        let buf = Bytes.make 100_000 'x' in
        Weak.set weak i (Some buf);
        Heap.push h
          ~time:(Time.of_seconds (float_of_int (i * 37 mod n)))
          (fun () -> Bytes.length buf))
  in
  List.iteri (fun i handle -> if i mod 5 = 0 then ignore (Heap.cancel h handle))
    handles;
  ignore (Sys.opaque_identity (drain h));
  weak

(* A fired or discarded event must not stay reachable from the queue:
   its closure may capture arbitrarily large state. *)
let test_no_retention_after_drain () =
  let h = Heap.create () in
  let weak = fill_and_drain h 100 in
  Gc.full_major ();
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to Weak.length weak - 1 do
    if Weak.check weak i then incr alive
  done;
  Alcotest.(check int) "buffers still reachable" 0 !alive;
  (* [h] stays live through both collections *)
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let heap_cases =
  [
    Alcotest.test_case "orders by time" `Quick test_orders_by_time;
    Alcotest.test_case "fifo ties" `Quick test_fifo_on_ties;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "cancel root" `Quick test_cancel_root;
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "interleaved" `Quick test_interleaved_push_pop;
    Alcotest.test_case "length under cancel/pop" `Quick
      test_length_interleaved_cancel_pop;
    Alcotest.test_case "all cancelled is empty" `Quick
      test_all_cancelled_reports_empty;
    Alcotest.test_case "drained events unreachable" `Quick
      test_no_retention_after_drain;
    Alcotest.test_case "event on a bucket boundary" `Quick
      test_bucket_boundary;
  ]

let prop_sorts =
  QCheck.Test.make ~count:300 ~name:"heap pops nondecreasing times"
    QCheck.(list (float_range 0. 1000.))
    (fun times ->
      let h = Heap.create () in
      List.iter
        (fun t -> ignore (Heap.push h ~time:(Time.of_seconds t) t))
        times;
      let popped = List.map fst (drain h) in
      List.length popped = List.length times
      && popped = List.sort Float.compare popped)

let prop_cancel_half =
  QCheck.Test.make ~count:200 ~name:"cancelled events never pop (heap)"
    QCheck.(list (float_range 0. 100.))
    (fun times ->
      let h = Heap.create () in
      let handles =
        List.mapi
          (fun i t -> (i, Heap.push h ~time:(Time.of_seconds t) i))
          times
      in
      let cancelled =
        List.filter_map
          (fun (i, handle) ->
            if i mod 2 = 0 then begin
              ignore (Heap.cancel h handle);
              Some i
            end
            else None)
          handles
      in
      let popped = List.map snd (drain h) in
      List.for_all (fun i -> not (List.mem i popped)) cancelled
      && List.length popped = List.length times - List.length cancelled)

(* The heap against a list-based reference: an arbitrary interleaving
   of pushes, peeks, pops and cancels must pop exactly the earliest live
   [(time, insertion seq)] at every step, read through
   {!Heap.top_time} and {!Heap.take_top} as the engine reads it.  Times
   come from 40 instants, so most events share their time with others
   and the pop order among them rests on the first-in-first-out
   tie-break; scripts of up to 5,000 steps (about 3,000 pushes) sift
   deep heaps and grow the arrays several times over. *)
let prop_matches_reference =
  QCheck.Test.make ~count:100 ~name:"heap matches the list reference"
    QCheck.(list_of_size Gen.(0 -- 5000) (pair (int_bound 39) (int_range 0 9)))
    (fun script ->
      let h = Heap.create () in
      (* The reference: the live events as (time, seq) pairs, in no
         order.  Each event's value is its seq. *)
      let live = ref [] in
      let earliest () =
        List.fold_left
          (fun best e ->
            match best with Some b when b <= e -> best | _ -> Some e)
          None !live
      in
      let remove seq = live := List.filter (fun (_, s) -> s <> seq) !live in
      let handles = ref [] (* (handle, seq), newest first *) in
      let pushed = ref 0 in
      let ok = ref true in
      let observe b = if not b then ok := false in
      let peek () =
        if Heap.is_empty h then None else Some (Heap.top_time h)
      in
      (* Pop both; [false] once the heap is empty. *)
      let pop_both () =
        let expected = earliest () in
        Option.iter (fun (_, seq) -> remove seq) expected;
        let got = pop h in
        observe (got = expected);
        got <> None
      in
      List.iter
        (fun (instant, action) ->
          if action <= 5 then begin
            let seq = !pushed in
            let time = Time.of_seconds (2.5 *. float_of_int instant) in
            incr pushed;
            handles := (Heap.push h ~time seq, seq) :: !handles;
            live := (time, seq) :: !live
          end
          else if action <= 7 then begin
            observe (peek () = Option.map fst (earliest ()));
            ignore (pop_both ())
          end
          else begin
            match !handles with
            | [] -> ()
            | all ->
                let handle, seq =
                  List.nth all (action * 31 mod List.length all)
                in
                let was_live = List.exists (fun (_, s) -> s = seq) !live in
                remove seq;
                observe (Heap.cancel h handle = was_live)
          end;
          observe (Heap.length h = List.length !live))
        script;
      while pop_both () do
        ()
      done;
      !ok)

(* {1 Engine} *)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  let record tag _ = log := tag :: !log in
  ignore (Engine.schedule e ~at:(Time.of_seconds 3.) (record "c"));
  ignore (Engine.schedule e ~at:(Time.of_seconds 1.) (record "a"));
  ignore (Engine.schedule e ~at:(Time.of_seconds 2.) (record "b"));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.
    (Time.to_seconds (Engine.now e))

let test_engine_rejects_past () =
  let e = Engine.create () in
  ignore
    (Engine.schedule e ~at:(Time.of_seconds 5.) (fun e ->
         Alcotest.check_raises "past schedule"
           (Invalid_argument "Engine.schedule: cannot schedule in the past")
           (fun () -> ignore (Engine.schedule e ~at:(Time.of_seconds 1.) (fun _ -> ())))));
  Engine.run e

let test_engine_rejects_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
      ignore (Engine.schedule_after e ~delay:(-1.) (fun _ -> ())))

let test_engine_until () =
  let e = Engine.create () in
  let ran = ref [] in
  List.iter
    (fun t ->
      ignore
        (Engine.schedule e ~at:(Time.of_seconds t) (fun _ ->
             ran := t :: !ran)))
    [ 1.; 2.; 3.; 4. ];
  Engine.run ~until:(Time.of_seconds 2.5) e;
  Alcotest.(check (list (float 1e-9))) "only events <= until" [ 1.; 2. ]
    (List.rev !ran);
  Alcotest.(check (float 1e-9)) "clock advanced to until" 2.5
    (Time.to_seconds (Engine.now e));
  Alcotest.(check int) "rest still pending" 2 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_engine_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore
      (Engine.schedule e ~at:(Time.of_seconds (float_of_int i)) (fun e ->
           incr count;
           if !count = 3 then Engine.stop e))
  done;
  Engine.run e;
  Alcotest.(check int) "stopped after 3" 3 !count;
  (* run again resumes *)
  Engine.run e;
  Alcotest.(check int) "resumed" 10 !count

let test_engine_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore
      (Engine.schedule e ~at:(Time.of_seconds (float_of_int i)) (fun _ ->
           incr count))
  done;
  Engine.run ~max_events:4 e;
  Alcotest.(check int) "budget respected" 4 !count

let test_engine_cancel_pending () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~at:(Time.of_seconds 1.) (fun _ -> fired := true) in
  Alcotest.(check bool) "cancel" true (Engine.cancel e h);
  Engine.run e;
  Alcotest.(check bool) "did not fire" false !fired

(* A handle is the event's cell with no box around it.  Cancelling
   through it a second time, or after the event fired, reports failure
   and leaves the pending count alone. *)
let test_engine_cancel_twice_and_after_firing () =
  let e = Engine.create () in
  let fired = ref [] in
  let at s tag =
    Engine.schedule e ~at:(Time.of_seconds s) (fun _ -> fired := tag :: !fired)
  in
  let a = at 1. "a" in
  let b = at 2. "b" in
  ignore (at 3. "c");
  Alcotest.(check bool) "cancel pending" true (Engine.cancel e b);
  Alcotest.(check bool) "cancel twice" false (Engine.cancel e b);
  Alcotest.(check int) "two pending" 2 (Engine.pending e);
  Engine.run ~until:(Time.of_seconds 1.5) e;
  Alcotest.(check (list string)) "a fired" [ "a" ] !fired;
  Alcotest.(check bool) "cancel after firing" false (Engine.cancel e a);
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list string)) "b never fires" [ "c"; "a" ] !fired;
  Alcotest.(check int) "none pending" 0 (Engine.pending e)

let test_engine_schedule_now_from_callback () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~at:(Time.of_seconds 1.) (fun e ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule e ~at:(Engine.now e) (fun _ ->
                log := "inner" :: !log))));
  ignore
    (Engine.schedule e ~at:(Time.of_seconds 1.) (fun _ ->
         log := "peer" :: !log));
  Engine.run e;
  (* The same-time event scheduled from the callback runs after the
     already-queued peer (insertion order). *)
  Alcotest.(check (list string)) "deterministic same-time order"
    [ "outer"; "peer"; "inner" ] (List.rev !log)

let test_engine_events_executed () =
  let e = Engine.create () in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~at:(Time.of_seconds (float_of_int i)) (fun _ -> ()))
  done;
  Engine.run e;
  Alcotest.(check int) "executed count" 5 (Engine.events_executed e)

(* {1 Profiling probes} *)

let test_profile_none_when_disabled () =
  let e = Engine.create () in
  for i = 1 to 5 do
    ignore
      (Engine.schedule ~label:"tick" e
         ~at:(Time.of_seconds (float_of_int i))
         (fun _ -> ()))
  done;
  Engine.run e;
  Alcotest.(check bool) "not enabled" false (Engine.profiling_enabled e);
  Alcotest.(check bool) "no profile" true (Engine.profile e = None)

let test_profile_counts_by_label () =
  let e = Engine.create () in
  Engine.enable_profiling e;
  Alcotest.(check bool) "enabled" true (Engine.profiling_enabled e);
  for i = 1 to 6 do
    ignore
      (Engine.schedule ~label:"tick" e
         ~at:(Time.of_seconds (float_of_int i))
         (fun _ -> ()))
  done;
  for i = 1 to 2 do
    ignore
      (Engine.schedule ~label:"tock" e
         ~at:(Time.of_seconds (10. +. float_of_int i))
         (fun _ -> ()))
  done;
  ignore (Engine.schedule e ~at:(Time.of_seconds 20.) (fun _ -> ()));
  Engine.run e;
  match Engine.profile e with
  | None -> Alcotest.fail "profile expected"
  | Some p ->
      Alcotest.(check int) "high water = peak pending" 9 p.heap_high_water;
      let calls label =
        match List.assoc_opt label p.by_label with
        | Some (s : Engine.label_stats) -> s.calls
        | None -> 0
      in
      Alcotest.(check int) "tick calls" 6 (calls "tick");
      Alcotest.(check int) "tock calls" 2 (calls "tock");
      Alcotest.(check int) "unlabeled bucket" 1 (calls "(unlabeled)");
      Alcotest.(check bool) "host time non-negative" true
        (List.for_all
           (fun (_, (s : Engine.label_stats)) -> s.host_seconds >= 0.)
           p.by_label)

let test_profile_disable_stops_collecting () =
  let e = Engine.create () in
  Engine.enable_profiling e;
  ignore
    (Engine.schedule ~label:"before" e ~at:(Time.of_seconds 1.) (fun _ -> ()));
  Engine.run e;
  Engine.disable_profiling e;
  Alcotest.(check bool) "disabled" false (Engine.profiling_enabled e);
  ignore
    (Engine.schedule ~label:"after" e ~at:(Time.of_seconds 2.) (fun _ -> ()));
  Engine.run e;
  match Engine.profile e with
  | None -> Alcotest.fail "snapshot survives disabling"
  | Some p ->
      Alcotest.(check bool) "before recorded" true
        (List.mem_assoc "before" p.by_label);
      Alcotest.(check bool) "after not recorded" false
        (List.mem_assoc "after" p.by_label)

let test_profile_does_not_change_execution () =
  (* the same schedule runs identically with probes on: order,
     clock, executed count *)
  let trace enable =
    let e = Engine.create () in
    if enable then Engine.enable_profiling e;
    let log = ref [] in
    List.iter
      (fun (t, tag) ->
        ignore
          (Engine.schedule ~label:tag e ~at:(Time.of_seconds t) (fun e ->
               log := (tag, Time.to_seconds (Engine.now e)) :: !log)))
      [ (3., "c"); (1., "a"); (2., "b"); (1., "a2") ];
    Engine.run e;
    (List.rev !log, Engine.events_executed e)
  in
  Alcotest.(check bool) "identical trajectory" true (trace false = trace true)

(* {1 Window exchange}

   Random windows of messages, sent the way the sharded runner sends
   them: each shard's batch in emission order, the per-source sequence
   counted in shard order then emission order, and one exchange per
   window.  A source may send from several shards here, which the
   runner never does, so the order in which the exchange visits the
   shards shows in the tie order.  Ids come from a small set that
   includes 0 and the largest id, so (dst, cls, src) triples repeat
   and every field of the packed key is filled to its top bit. *)

let max_id = Window_sync.id_limit - 1

let exchange_case =
  let open QCheck.Gen in
  let id = oneofl [ 0; 1; 2; 5; max_id - 1; max_id ] in
  let msg = quad id (int_bound 3) id (int_bound 1000) in
  let case =
    int_range 1 4 >>= fun shards ->
    list_size (int_range 1 4) (list_repeat shards (list_size (0 -- 100) msg))
    >|= fun windows -> (shards, windows)
  in
  QCheck.make case
    ~print:(fun (shards, windows) ->
      Printf.sprintf "shards %d, window sizes [%s]" shards
        (String.concat "; "
           (List.map
              (fun batches ->
                String.concat ","
                  (List.map (fun b -> string_of_int (List.length b)) batches))
              windows)))

let prop_exchange_order =
  QCheck.Test.make ~count:300
    ~name:"exchange drains in (dst, cls, src, seq) order" exchange_case
    (fun (shards, windows) ->
      let n_windows = List.length windows in
      let ws = Window_sync.create ~shards ~windows:n_windows in
      let seqs = Hashtbl.create 16 in
      let next_seq src =
        let q = Option.value ~default:0 (Hashtbl.find_opt seqs src) in
        Hashtbl.replace seqs src (q + 1);
        q
      in
      (* Due in the current window, per destination shard, as
         (dst, cls, src, seq, arg, obj); [obj] names the message. *)
      let due = Array.make shards [] in
      let by_dcss (d, c, s, q, _, _) (d', c', s', q', _, _) =
        compare (d, c, s, q) (d', c', s', q')
      in
      let drained_in_order () =
        List.for_all
          (fun shard ->
            let n = Window_sync.sort_inbox ws ~shard in
            let got =
              List.init n (fun i ->
                  let k = Window_sync.key ws ~shard i in
                  ( Window_sync.dst_of k,
                    Window_sync.cls_of k,
                    Window_sync.src_of k,
                    Window_sync.seq ws ~shard i,
                    Window_sync.arg ws ~shard i,
                    Window_sync.obj ws ~shard i ))
            in
            got = List.sort by_dcss due.(shard))
          (List.init shards Fun.id)
      in
      let sent = ref 0 and last = ref 0 in
      let ok =
        List.for_all Fun.id
          (List.mapi
             (fun w batches ->
               let ordered = drained_in_order () in
               Array.fill due 0 shards [];
               last := 0;
               List.iteri
                 (fun shard batch ->
                   List.iter
                     (fun (dst, cls, src, arg) ->
                       let seq = next_seq src and obj = !sent in
                       incr sent;
                       incr last;
                       let d = dst mod shards in
                       Window_sync.send ws ~shard ~to_shard:d ~dst ~cls ~src ~arg
                         ~seq obj;
                       due.(d) <- (dst, cls, src, seq, arg, obj) :: due.(d))
                     batch)
                 batches;
               Window_sync.exchange ws ~window:w;
               ordered)
             windows)
      in
      (* The last window's messages were past the horizon: dropped, and
         no inbox holds them. *)
      ok
      && Window_sync.dropped ws = !last
      && List.for_all
           (fun shard -> Window_sync.sort_inbox ws ~shard = 0)
           (List.init shards Fun.id))

let test_exchange_rejects_bad_ids () =
  let ws = Window_sync.create ~shards:2 ~windows:2 in
  let send ~dst ~cls ~src () =
    Window_sync.send ws ~shard:0 ~to_shard:(dst land 1) ~dst ~cls ~src ~arg:0
      ~seq:0 ()
  in
  List.iter
    (fun (what, dst, cls, src) ->
      Alcotest.check_raises what
        (Invalid_argument "Window_sync.send: id or class out of range")
        (send ~dst ~cls ~src))
    [
      ("dst at the limit", Window_sync.id_limit, 0, 0);
      ("src at the limit", 0, 0, Window_sync.id_limit);
      ("negative dst", -1, 0, 0);
      ("negative src", 0, 0, -1);
      ("class 4", 0, 4, 0);
      ("negative class", 0, -1, 0);
    ];
  send ~dst:max_id ~cls:3 ~src:max_id ();
  Window_sync.exchange ws ~window:0;
  Alcotest.(check int)
    "largest ids accepted" 1
    (Window_sync.sort_inbox ws ~shard:(max_id mod 2))

let () =
  Alcotest.run "cup_dess"
    ([
       ( "time",
         [
           Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
           Alcotest.test_case "primitives match Stdlib" `Quick
             test_time_matches_stdlib;
         ] );
     ]
    @ [
      ("queue:heap", heap_cases);
      ( "queue properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sorts; prop_cancel_half; prop_matches_reference ] );
      ( "window exchange",
        [
          QCheck_alcotest.to_alcotest prop_exchange_order;
          Alcotest.test_case "rejects ids out of range" `Quick
            test_exchange_rejects_bad_ids;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
          Alcotest.test_case "rejects negative delay" `Quick
            test_engine_rejects_negative_delay;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "stop/resume" `Quick test_engine_stop;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "cancel" `Quick test_engine_cancel_pending;
          Alcotest.test_case "cancel twice and after firing" `Quick
            test_engine_cancel_twice_and_after_firing;
          Alcotest.test_case "same-time from callback" `Quick
            test_engine_schedule_now_from_callback;
          Alcotest.test_case "executed count" `Quick
            test_engine_events_executed;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "off by default" `Quick
            test_profile_none_when_disabled;
          Alcotest.test_case "counts by label" `Quick
            test_profile_counts_by_label;
          Alcotest.test_case "disable stops collecting" `Quick
            test_profile_disable_stops_collecting;
          Alcotest.test_case "no behavioural change" `Quick
            test_profile_does_not_change_execution;
        ] );
    ])
