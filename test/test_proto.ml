(* Tests for Cup_proto: policies, queues, interest vectors, and the
   node state machine — every case of Sections 2.5-2.7 plus the
   Section 3.6 replica-independent cut-off. *)

module Policy = Cup_proto.Policy
module Update = Cup_proto.Update
module Update_queue = Cup_proto.Update_queue
module Interest = Cup_proto.Interest
module Entry = Cup_proto.Entry
module Replica_id = Cup_proto.Replica_id
module Store = Cup_proto.Node_store
module Route = Cup_overlay.Route
module Node_id = Cup_overlay.Node_id
module Key = Cup_overlay.Key
module Time = Cup_dess.Time

let nid = Node_id.of_int
let key k = Key.of_int k
let rid = Replica_id.of_int
let entry ?(replica = 0) expiry =
  Entry.make ~replica:(rid replica) ~expiry:(Time.of_seconds expiry)

(* {1 Policy} *)

let decision = Alcotest.testable
    (fun fmt -> function
      | Policy.Keep -> Format.pp_print_string fmt "Keep"
      | Policy.Cut -> Format.pp_print_string fmt "Cut")
    ( = )

let test_policy_all_out_keeps () =
  Alcotest.check decision "always keep" Policy.Keep
    (Policy.decide Policy.All_out ~distance:30 ~queries_since_update:0
       ~dry_updates:100)

let test_policy_linear () =
  let p = Policy.Linear 0.5 in
  Alcotest.check decision "enough queries" Policy.Keep
    (Policy.decide p ~distance:10 ~queries_since_update:5 ~dry_updates:0);
  Alcotest.check decision "too few" Policy.Cut
    (Policy.decide p ~distance:10 ~queries_since_update:4 ~dry_updates:0);
  Alcotest.check decision "close to root is lenient" Policy.Keep
    (Policy.decide p ~distance:1 ~queries_since_update:1 ~dry_updates:0)

let test_policy_logarithmic () =
  let p = Policy.Logarithmic 2.0 in
  (* lg 8 = 3, threshold 6 *)
  Alcotest.check decision "at threshold" Policy.Keep
    (Policy.decide p ~distance:8 ~queries_since_update:6 ~dry_updates:0);
  Alcotest.check decision "below threshold" Policy.Cut
    (Policy.decide p ~distance:8 ~queries_since_update:5 ~dry_updates:0);
  (* lg 1 = 0: always popular at distance 1 *)
  Alcotest.check decision "distance 1" Policy.Keep
    (Policy.decide p ~distance:1 ~queries_since_update:0 ~dry_updates:0)

let test_policy_log_more_lenient_than_linear () =
  (* Same alpha: at distance 16, linear needs 16a queries, log needs
     4a — the paper's "logarithmic threshold is more lenient". *)
  let queries = 5 in
  Alcotest.check decision "linear cuts" Policy.Cut
    (Policy.decide (Policy.Linear 1.) ~distance:16
       ~queries_since_update:queries ~dry_updates:0);
  Alcotest.check decision "logarithmic keeps" Policy.Keep
    (Policy.decide (Policy.Logarithmic 1.) ~distance:16
       ~queries_since_update:queries ~dry_updates:0)

let test_policy_second_chance () =
  let p = Policy.second_chance in
  Alcotest.check decision "first dry update gets a second chance"
    Policy.Keep
    (Policy.decide p ~distance:5 ~queries_since_update:0 ~dry_updates:1);
  Alcotest.check decision "second dry update cuts" Policy.Cut
    (Policy.decide p ~distance:5 ~queries_since_update:0 ~dry_updates:2);
  Alcotest.check decision "queries reset the streak" Policy.Keep
    (Policy.decide p ~distance:5 ~queries_since_update:3 ~dry_updates:0)

let test_policy_sender_limit () =
  Alcotest.(check (option int)) "standard squelches at the root" (Some 0)
    (Policy.sender_limit Policy.Standard_caching);
  Alcotest.(check (option int)) "push level" (Some 7)
    (Policy.sender_limit (Policy.Push_level 7));
  Alcotest.(check (option int)) "second chance unbounded" None
    (Policy.sender_limit Policy.second_chance)

let test_policy_classification () =
  Alcotest.(check bool) "second-chance uses clear bits" true
    (Policy.uses_clear_bits Policy.second_chance);
  Alcotest.(check bool) "push-level does not" false
    (Policy.uses_clear_bits (Policy.Push_level 3));
  Alcotest.(check bool) "standard does not coalesce" false
    (Policy.coalesces_queries Policy.Standard_caching);
  Alcotest.(check bool) "cup coalesces" true
    (Policy.coalesces_queries Policy.All_out)

(* {1 Update} *)

let test_update_forwarded_increments_level () =
  let u = Update.refresh ~key:(key 1) ~entry:(entry 100.) ~level:3 in
  Alcotest.(check int) "level + 1" 4 (Update.forwarded u).Update.level

let test_update_subject () =
  let e = entry ~replica:9 50. in
  Alcotest.(check (option int)) "refresh subject" (Some 9)
    (Option.map Replica_id.to_int
       (Update.subject (Update.refresh ~key:(key 1) ~entry:e ~level:1)));
  Alcotest.(check (option int)) "first-time has none" None
    (Option.map Replica_id.to_int
       (Update.subject (Update.first_time ~key:(key 1) ~entries:[ e ] ~level:1)))

let test_update_expiry () =
  let u = Update.refresh ~key:(key 1) ~entry:(entry 10.) ~level:1 in
  Alcotest.(check bool) "fresh before expiry" false
    (Update.is_expired u ~now:(Time.of_seconds 9.));
  Alcotest.(check bool) "expired at expiry" true
    (Update.is_expired u ~now:(Time.of_seconds 10.));
  let d = Update.delete ~key:(key 1) ~entry:(entry 10.) ~level:1 in
  Alcotest.(check bool) "deletes never expire" false
    (Update.is_expired d ~now:(Time.of_seconds 99.));
  let ft = Update.first_time ~key:(key 1) ~entries:[] ~level:1 in
  Alcotest.(check bool) "first-time never expires" false
    (Update.is_expired ft ~now:(Time.of_seconds 99.))

(* {1 Update queue} *)

let kinds q = List.map (fun (u : Update.t) -> u.Update.kind) (Update_queue.peek_all q)

let test_queue_latency_first_ordering () =
  let q = Update_queue.create Update_queue.Latency_first in
  Update_queue.push q (Update.append ~key:(key 1) ~entry:(entry 100.) ~level:1);
  Update_queue.push q (Update.refresh ~key:(key 1) ~entry:(entry 100.) ~level:1);
  Update_queue.push q (Update.delete ~key:(key 1) ~entry:(entry 100.) ~level:1);
  Update_queue.push q (Update.first_time ~key:(key 1) ~entries:[ entry 100. ] ~level:1);
  Alcotest.(check (list string))
    "first-time > delete > refresh > append"
    [ "first-time"; "delete"; "refresh"; "append" ]
    (List.map Update.kind_to_string (kinds q))

let test_queue_flash_crowd_promotes_appends () =
  let q = Update_queue.create Update_queue.Flash_crowd in
  Update_queue.push q (Update.refresh ~key:(key 1) ~entry:(entry 100.) ~level:1);
  Update_queue.push q (Update.append ~key:(key 1) ~entry:(entry 100.) ~level:1);
  Update_queue.push q (Update.delete ~key:(key 1) ~entry:(entry 100.) ~level:1);
  Alcotest.(check (list string)) "append > delete > refresh"
    [ "append"; "delete"; "refresh" ]
    (List.map Update.kind_to_string (kinds q))

let test_queue_fifo () =
  let q = Update_queue.create Update_queue.Fifo in
  Update_queue.push q (Update.append ~key:(key 1) ~entry:(entry 100.) ~level:1);
  Update_queue.push q (Update.first_time ~key:(key 1) ~entries:[] ~level:1);
  Alcotest.(check (list string)) "insertion order"
    [ "append"; "first-time" ]
    (List.map Update.kind_to_string (kinds q))

let test_queue_expiry_urgency () =
  let q = Update_queue.create Update_queue.Latency_first in
  Update_queue.push q (Update.refresh ~key:(key 1) ~entry:(entry ~replica:1 200.) ~level:1);
  Update_queue.push q (Update.refresh ~key:(key 2) ~entry:(entry ~replica:2 50.) ~level:1);
  match Update_queue.pop q ~now:Time.zero with
  | Some u ->
      Alcotest.(check (option int)) "closest to expiry first" (Some 2)
        (Option.map Replica_id.to_int (Update.subject u))
  | None -> Alcotest.fail "queue should pop"

let test_queue_pop_drops_expired () =
  let q = Update_queue.create Update_queue.Latency_first in
  Update_queue.push q (Update.refresh ~key:(key 1) ~entry:(entry 10.) ~level:1);
  Update_queue.push q (Update.refresh ~key:(key 2) ~entry:(entry 100.) ~level:1);
  (match Update_queue.pop q ~now:(Time.of_seconds 50.) with
  | Some u -> Alcotest.(check int) "expired skipped" 2 (Key.to_int u.Update.key)
  | None -> Alcotest.fail "fresh update expected");
  Alcotest.(check bool) "drained" true (Update_queue.is_empty q)

let test_queue_drop_expired () =
  let q = Update_queue.create Update_queue.Fifo in
  Update_queue.push q (Update.refresh ~key:(key 1) ~entry:(entry 10.) ~level:1);
  Update_queue.push q (Update.refresh ~key:(key 2) ~entry:(entry 100.) ~level:1);
  Update_queue.push q (Update.append ~key:(key 3) ~entry:(entry 5.) ~level:1);
  Alcotest.(check int) "two dropped" 2
    (Update_queue.drop_expired q ~now:(Time.of_seconds 50.));
  Alcotest.(check int) "one left" 1 (Update_queue.length q)

let prop_queue_pop_order_stable =
  QCheck.Test.make ~count:200
    ~name:"queue pop order: rank, then expiry, then FIFO"
    QCheck.(list (pair (int_bound 3) (float_range 1. 1000.)))
    (fun items ->
      let q = Update_queue.create Update_queue.Latency_first in
      List.iteri
        (fun i (kind, expiry) ->
          let e = Entry.make ~replica:(rid i) ~expiry:(Time.of_seconds expiry) in
          let u =
            match kind with
            | 0 -> Update.first_time ~key:(key 1) ~entries:[ e ] ~level:1
            | 1 -> Update.delete ~key:(key 1) ~entry:e ~level:1
            | 2 -> Update.refresh ~key:(key 1) ~entry:e ~level:1
            | _ -> Update.append ~key:(key 1) ~entry:e ~level:1
          in
          Update_queue.push q u)
        items;
      let rank (u : Update.t) =
        match u.Update.kind with
        | Update.First_time -> 0
        | Update.Delete -> 1
        | Update.Refresh -> 2
        | Update.Append -> 3
      in
      let popped = Update_queue.peek_all q in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> rank a <= rank b && nondecreasing rest
        | _ -> true
      in
      nondecreasing popped && List.length popped = List.length items)

(* {1 Interest} *)

let ids i = List.map Node_id.to_int (Interest.to_list i)

let test_interest_ops () =
  Alcotest.(check bool) "empty" true (Interest.is_empty Interest.empty);
  let i = Interest.add (Interest.add Interest.empty (nid 3)) (nid 1) in
  Alcotest.(check bool) "add is idempotent" true (Interest.add i (nid 3) == i);
  Alcotest.(check int) "two members" 2 (Interest.cardinal i);
  Alcotest.(check (list int)) "sorted" [ 1; 3 ] (ids i);
  let j = Interest.remove i (nid 1) in
  Alcotest.(check bool) "membership" false (Interest.mem j (nid 1));
  Alcotest.(check bool) "others kept" true (Interest.mem j (nid 3));
  Alcotest.(check (list int)) "argument unchanged" [ 1; 3 ] (ids i);
  Alcotest.(check bool) "removing an absent id is a no-op" true
    (Interest.remove j (nid 7) == j);
  Alcotest.(check bool) "last member out" true
    (Interest.is_empty (Interest.remove j (nid 3)))

let test_interest_remap () =
  let i = Interest.add Interest.empty (nid 5) in
  let i = Interest.remap i ~old_id:(nid 5) ~new_id:(nid 9) in
  Alcotest.(check (list int)) "bit moved" [ 9 ] (ids i);
  Alcotest.(check bool) "remap of clear bit is no-op" true
    (Interest.remap i ~old_id:(nid 5) ~new_id:(nid 7) == i);
  Alcotest.(check (list int)) "onto a set bit" [ 4 ]
    (ids
       (Interest.remap
          (Interest.add i (nid 4))
          ~old_id:(nid 9) ~new_id:(nid 4)))

(* {1 Node state machine}

   Helpers to run handlers and classify the returned actions. *)

let cup_config = Store.default_config

let std_config =
  { Store.policy = Policy.Standard_caching; replica_independent_cutoff = true }

let queries_sent actions =
  List.filter_map
    (function Store.Send_query { to_; key } -> Some (to_, key) | _ -> None)
    actions

let updates_sent actions =
  List.filter_map
    (function
      | Store.Send_update { to_; update; answering } ->
          Some (to_, update, answering)
      | _ -> None)
    actions

let clear_bits_sent actions =
  List.filter_map
    (function Store.Send_clear_bit { to_; key } -> Some (to_, key) | _ -> None)
    actions

let local_answers actions =
  List.filter_map
    (function
      | Store.Answer_local { posted_at; hit; entries; _ } ->
          Some (posted_at, hit, entries)
      | _ -> None)
    actions

let t0 = Time.of_seconds 0.
let at s = Time.of_seconds s

(* The node every single-node case drives. *)
let me = nid 0

(* [Store.handle_query] with the routing decision made up front: [None]
   when the node's zone contains the key, [Some hop] for where a pushed
   query instance goes. *)
let handle_query store ~node ~now ~next_hop source k =
  match next_hop with
  | None ->
      Store.handle_query store ~node ~now ~owner:true
        ~route:(fun _ _ -> Route.Owner)
        source k
  | Some hop ->
      Store.handle_query store ~node ~now ~owner:false
        ~route:(fun _ _ -> Route.Forward hop)
        source k

(* A node with one cached fresh entry for [key 1], learned at distance
   [level] from neighbor [up]. *)
let node_with_cached ?(config = cup_config) ?(level = 3) ~up () =
  let n = Store.create config in
  (* A local query creates the pending state and pushes upstream... *)
  let actions =
    handle_query n ~node:me ~now:t0 ~next_hop:(Some up) (Store.From_local t0)
      (key 1)
  in
  assert (queries_sent actions = [ (up, key 1) ]);
  (* ...and the first-time update answers it. *)
  let ft =
    Update.first_time ~key:(key 1) ~entries:[ entry ~replica:0 300. ] ~level
  in
  let actions = Store.handle_update n ~node:me ~now:(at 1.) ~from:up ft in
  assert (local_answers actions <> []);
  n

(* {2 handle_query} *)

let test_query_case1_fresh_cache_answers_neighbor () =
  let up = nid 9 in
  let n = node_with_cached ~up () in
  let actions =
    handle_query n ~node:me ~now:(at 2.) ~next_hop:(Some up)
      (Store.From_neighbor (nid 2)) (key 1)
  in
  (match updates_sent actions with
  | [ (to_, u, answering) ] ->
      Alcotest.(check int) "answer to querier" 2 (Node_id.to_int to_);
      Alcotest.(check bool) "it is an answer" true answering;
      Alcotest.(check string) "first-time" "first-time"
        (Update.kind_to_string u.Update.kind);
      Alcotest.(check int) "level is my distance + 1" 4 u.Update.level
  | _ -> Alcotest.fail "expected exactly one response");
  Alcotest.(check (list int)) "no query pushed" []
    (List.map (fun (t, _) -> Node_id.to_int t) (queries_sent actions));
  Alcotest.(check (list int)) "interest bit set" [ 2 ]
    (List.map Node_id.to_int (Store.interested_neighbors n me (key 1)))

let test_query_case1_local_hit () =
  let up = nid 9 in
  let n = node_with_cached ~up () in
  let actions =
    handle_query n ~node:me ~now:(at 2.) ~next_hop:(Some up)
      (Store.From_local (at 2.)) (key 1)
  in
  match local_answers actions with
  | [ (posted, true, entries) ] ->
      Alcotest.(check int) "one waiter" 1 (List.length posted);
      Alcotest.(check int) "entries returned" 1 (List.length entries)
  | _ -> Alcotest.fail "expected a synchronous hit"

let test_query_case2_cold_pushes_and_sets_pending () =
  let n = Store.create cup_config in
  let actions =
    handle_query n ~node:me ~now:t0 ~next_hop:(Some (nid 7))
      (Store.From_neighbor (nid 2)) (key 1)
  in
  Alcotest.(check int) "one query up" 1 (List.length (queries_sent actions));
  Alcotest.(check bool) "pending set" true (Store.pending_first n me (key 1))

let test_query_case2_coalesces () =
  let n = Store.create cup_config in
  ignore
    (handle_query n ~node:me ~now:t0 ~next_hop:(Some (nid 7))
       (Store.From_neighbor (nid 2)) (key 1));
  let again =
    handle_query n ~node:me ~now:(at 0.1) ~next_hop:(Some (nid 7))
      (Store.From_neighbor (nid 3)) (key 1)
  in
  Alcotest.(check int) "burst coalesced" 0 (List.length (queries_sent again));
  Alcotest.(check int) "coalesce counted" 1 (Store.stats n).queries_coalesced;
  Alcotest.(check (list int)) "both interested" [ 2; 3 ]
    (List.map Node_id.to_int (Store.interested_neighbors n me (key 1)))

let test_query_standard_does_not_coalesce () =
  let n = Store.create std_config in
  ignore
    (handle_query n ~node:me ~now:t0 ~next_hop:(Some (nid 7))
       (Store.From_neighbor (nid 2)) (key 1));
  let again =
    handle_query n ~node:me ~now:(at 0.1) ~next_hop:(Some (nid 7))
      (Store.From_neighbor (nid 3)) (key 1)
  in
  Alcotest.(check int) "second query also pushed" 1
    (List.length (queries_sent again))

let test_query_case3_expired_repushes () =
  let up = nid 9 in
  let n = node_with_cached ~up () in
  (* entry expires at t=300 *)
  let actions =
    handle_query n ~node:me ~now:(at 301.) ~next_hop:(Some up)
      (Store.From_local (at 301.)) (key 1)
  in
  Alcotest.(check int) "freshness miss pushes query" 1
    (List.length (queries_sent actions));
  Alcotest.(check bool) "pending again" true (Store.pending_first n me (key 1))

let test_query_authority_answers_from_directory () =
  let n = Store.create cup_config in
  Store.add_local_key n me (key 1);
  ignore
    (Store.replica_birth n ~node:me ~now:t0 ~key:(key 1)
       (entry ~replica:4 500.));
  let actions =
    handle_query n ~node:me ~now:(at 1.) ~next_hop:None
      (Store.From_neighbor (nid 2)) (key 1)
  in
  match updates_sent actions with
  | [ (to_, u, true) ] ->
      Alcotest.(check int) "answer to querier" 2 (Node_id.to_int to_);
      Alcotest.(check int) "level 1 from authority" 1 u.Update.level;
      Alcotest.(check int) "carries the entry" 1 (List.length u.Update.entries)
  | _ -> Alcotest.fail "expected an authoritative response"

let test_query_becomes_empty_authority () =
  (* next_hop = None but the key is unknown: the node's zone contains
     the key, so it answers as an empty authority. *)
  let n = Store.create cup_config in
  let actions =
    handle_query n ~node:me ~now:t0 ~next_hop:None (Store.From_neighbor (nid 2))
      (key 5)
  in
  Alcotest.(check bool) "now owns the key" true (Store.owns n me (key 5));
  match updates_sent actions with
  | [ (_, u, true) ] ->
      Alcotest.(check int) "empty answer" 0 (List.length u.Update.entries)
  | _ -> Alcotest.fail "expected an (empty) response"

(* {2 Lazy routing}

   The runners drive [Node_store.handle_query] directly, with a routing
   function in place of a precomputed next hop.  These cases count its
   calls. *)

let counting_route answer =
  let calls = ref 0 in
  ( calls,
    fun _ _ ->
      incr calls;
      answer )

let stats_copy store =
  let s = Store.stats store in
  { s with Store.queries_in = s.queries_in }

let test_query_routes_only_when_pushing () =
  let store = Store.create cup_config in
  let me = nid 0 and up = nid 7 in
  let calls, route = counting_route (Route.Forward up) in
  let query ?(owner = false) ~now source k =
    Store.handle_query store ~node:me ~now ~owner ~route source k
  in
  let pushed = query ~now:t0 (Store.From_local t0) (key 1) in
  Alcotest.(check (list (pair int int))) "cold query pushes upstream"
    [ (7, 1) ]
    (List.map (fun (t, k) -> (Node_id.to_int t, Key.to_int k))
       (queries_sent pushed));
  Alcotest.(check int) "pushing routes once" 1 !calls;
  let coalesced = query ~now:(at 0.1) (Store.From_neighbor (nid 2)) (key 1) in
  Alcotest.(check int) "coalesced: nothing sent" 0 (List.length coalesced);
  Alcotest.(check int) "coalesced: no routing" 1 !calls;
  ignore
    (Store.handle_update store ~node:me ~now:(at 0.5) ~from:up
       (Update.first_time ~key:(key 1) ~entries:[ entry 300. ] ~level:2));
  let hit = query ~now:(at 1.) (Store.From_local (at 1.)) (key 1) in
  Alcotest.(check int) "cache answer" 1 (List.length (local_answers hit));
  Alcotest.(check int) "cache answer: no routing" 1 !calls;
  let auth =
    query ~owner:true ~now:(at 1.) (Store.From_neighbor (nid 3)) (key 2)
  in
  Alcotest.(check int) "authority answer" 1 (List.length (updates_sent auth));
  let again = query ~now:(at 2.) (Store.From_neighbor (nid 4)) (key 2) in
  Alcotest.(check int) "directory answer" 1 (List.length (updates_sent again));
  Alcotest.(check int) "authority answers: no routing" 1 !calls;
  let expired = query ~now:(at 301.) (Store.From_local (at 301.)) (key 1) in
  Alcotest.(check int) "expired entry pushes again" 1
    (List.length (queries_sent expired));
  Alcotest.(check int) "and routes once more" 2 !calls

let test_query_unroutable_leaves_no_state () =
  let store = Store.create cup_config in
  let me = nid 0 in
  let unroutable = Route.Stuck Route.No_progress in
  let check_untouched label k source ~now =
    let calls, route = counting_route unroutable in
    let stats = stats_copy store and slots = Store.live_slots store in
    let interested = Store.interested_neighbors store me k in
    let pending = Store.pending_first store me k in
    let actions =
      Store.handle_query store ~node:me ~now ~owner:false ~route source k
    in
    Alcotest.(check int) (label ^ ": routed once") 1 !calls;
    Alcotest.(check int) (label ^ ": no actions") 0 (List.length actions);
    Alcotest.(check bool) (label ^ ": stats unchanged") true
      (stats = Store.stats store);
    Alcotest.(check int) (label ^ ": live slots unchanged") slots
      (Store.live_slots store);
    Alcotest.(check (list int)) (label ^ ": interest unchanged")
      (List.map Node_id.to_int interested)
      (List.map Node_id.to_int (Store.interested_neighbors store me k));
    Alcotest.(check bool) (label ^ ": pending unchanged") pending
      (Store.pending_first store me k)
  in
  check_untouched "cold" (key 1) (Store.From_neighbor (nid 2)) ~now:t0;
  check_untouched "cold local" (key 1) (Store.From_local t0) ~now:t0;
  (* A key with an expired cached entry and no pending instance. *)
  let _, route = counting_route (Route.Forward (nid 7)) in
  ignore
    (Store.handle_query store ~node:me ~now:t0 ~owner:false ~route
       (Store.From_neighbor (nid 3)) (key 2));
  ignore
    (Store.handle_update store ~node:me ~now:(at 0.5) ~from:(nid 7)
       (Update.first_time ~key:(key 2) ~entries:[ entry 10. ] ~level:2));
  check_untouched "expired" (key 2) (Store.From_neighbor (nid 4)) ~now:(at 20.)

(* {2 handle_update} *)

let test_update_first_time_answers_waiters_and_forwards () =
  let n = Store.create cup_config in
  ignore
    (handle_query n ~node:me ~now:t0 ~next_hop:(Some (nid 7))
       (Store.From_local t0) (key 1));
  ignore
    (handle_query n ~node:me ~now:(at 0.1) ~next_hop:(Some (nid 7))
       (Store.From_neighbor (nid 2)) (key 1));
  let ft =
    Update.first_time ~key:(key 1) ~entries:[ entry 300. ] ~level:2
  in
  let actions = Store.handle_update n ~node:me ~now:(at 0.5) ~from:(nid 7) ft in
  (match local_answers actions with
  | [ (posted, false, _) ] ->
      Alcotest.(check int) "local waiter answered" 1 (List.length posted)
  | _ -> Alcotest.fail "expected exactly one local answer");
  (match updates_sent actions with
  | [ (to_, u, answering) ] ->
      Alcotest.(check int) "waiting neighbor gets the response" 2
        (Node_id.to_int to_);
      Alcotest.(check bool) "classified as answer" true answering;
      Alcotest.(check int) "level incremented for the next hop" 3
        u.Update.level
  | _ -> Alcotest.fail "expected one forwarded response");
  Alcotest.(check bool) "pending cleared" false
    (Store.pending_first n me (key 1));
  Alcotest.(check (option int)) "distance learned" (Some 2)
    (Store.distance_of n me (key 1))

let test_update_refresh_extends_freshness () =
  let up = nid 9 in
  let n = node_with_cached ~up () in
  let refresh =
    Update.refresh ~key:(key 1) ~entry:(entry ~replica:0 600.) ~level:3
  in
  ignore (Store.handle_update n ~node:me ~now:(at 299.) ~from:up refresh);
  Alcotest.(check int) "entry still fresh after old expiry" 1
    (List.length (Store.fresh_entries n ~node:me ~now:(at 400.) (key 1)))

let test_update_delete_removes_entry () =
  let up = nid 9 in
  let n = node_with_cached ~up () in
  let delete =
    Update.delete ~key:(key 1) ~entry:(entry ~replica:0 300.) ~level:3
  in
  ignore (Store.handle_update n ~node:me ~now:(at 10.) ~from:up delete);
  Alcotest.(check int) "entry gone" 0
    (List.length (Store.fresh_entries n ~node:me ~now:(at 11.) (key 1)))

let test_update_expired_dropped () =
  let up = nid 9 in
  let n = node_with_cached ~up () in
  (* interest from a neighbor so a forward would otherwise happen *)
  ignore
    (handle_query n ~node:me ~now:(at 2.) ~next_hop:(Some up)
       (Store.From_neighbor (nid 2)) (key 1));
  let stale =
    Update.refresh ~key:(key 1) ~entry:(entry ~replica:0 5.) ~level:3
  in
  let actions = Store.handle_update n ~node:me ~now:(at 10.) ~from:up stale in
  Alcotest.(check int) "nothing forwarded" 0 (List.length (updates_sent actions));
  Alcotest.(check int) "drop counted" 1
    (Store.stats n).expired_updates_dropped

let test_update_forwards_to_interested_only () =
  let up = nid 9 in
  let n = node_with_cached ~up () in
  ignore
    (handle_query n ~node:me ~now:(at 2.) ~next_hop:(Some up)
       (Store.From_neighbor (nid 2)) (key 1));
  let refresh =
    Update.refresh ~key:(key 1) ~entry:(entry ~replica:0 600.) ~level:3
  in
  let actions = Store.handle_update n ~node:me ~now:(at 3.) ~from:up refresh in
  (match updates_sent actions with
  | [ (to_, u, false) ] ->
      Alcotest.(check int) "forwarded to the interested neighbor" 2
        (Node_id.to_int to_);
      Alcotest.(check int) "level incremented" 4 u.Update.level
  | _ -> Alcotest.fail "expected one forward");
  (* Clear the neighbor's bit: next refresh must not forward.  With
     recent queries the node itself stays subscribed. *)
  ignore (Store.handle_clear_bit n ~node:me ~now:(at 4.) ~from:(nid 2) (key 1));
  ignore
    (handle_query n ~node:me ~now:(at 5.) ~next_hop:(Some up)
       (Store.From_local (at 5.)) (key 1));
  let actions = Store.handle_update n ~node:me ~now:(at 6.) ~from:up refresh in
  Alcotest.(check int) "no forward after clear-bit" 0
    (List.length (updates_sent actions))

let test_update_second_chance_cuts_after_two_dry () =
  let up = nid 9 in
  let n = node_with_cached ~up () in
  let refresh l =
    Update.refresh ~key:(key 1) ~entry:(entry ~replica:0 l) ~level:3
  in
  (* no queries since the first-time update: first dry refresh passes *)
  let a1 =
    Store.handle_update n ~node:me ~now:(at 10.) ~from:up (refresh 400.)
  in
  Alcotest.(check int) "second chance: no clear-bit yet" 0
    (List.length (clear_bits_sent a1));
  let a2 =
    Store.handle_update n ~node:me ~now:(at 20.) ~from:up (refresh 500.)
  in
  (match clear_bits_sent a2 with
  | [ (to_, k) ] ->
      Alcotest.(check int) "clear-bit to the sender" 9 (Node_id.to_int to_);
      Alcotest.(check int) "for the key" 1 (Key.to_int k)
  | _ -> Alcotest.fail "expected the cut-off clear-bit");
  (* while cut, further updates do not produce duplicate clear-bits *)
  let a3 =
    Store.handle_update n ~node:me ~now:(at 30.) ~from:up (refresh 600.)
  in
  Alcotest.(check int) "no duplicate clear-bit" 0
    (List.length (clear_bits_sent a3))

let test_update_query_resets_dry_streak () =
  let up = nid 9 in
  let n = node_with_cached ~up () in
  let refresh l =
    Update.refresh ~key:(key 1) ~entry:(entry ~replica:0 l) ~level:3
  in
  ignore (Store.handle_update n ~node:me ~now:(at 10.) ~from:up (refresh 400.));
  (* a query arrives: the streak resets *)
  ignore
    (handle_query n ~node:me ~now:(at 15.) ~next_hop:(Some up)
       (Store.From_local (at 15.)) (key 1));
  let a =
    Store.handle_update n ~node:me ~now:(at 20.) ~from:up (refresh 500.)
  in
  Alcotest.(check int) "no cut after intervening query" 0
    (List.length (clear_bits_sent a))

let test_update_push_level_limits_forwarding () =
  let config = { cup_config with Store.policy = Policy.Push_level 3 } in
  let up = nid 9 in
  (* Node at distance 3: forwarding to level 4 exceeds the bound. *)
  let n = node_with_cached ~config ~level:3 ~up () in
  ignore
    (handle_query n ~node:me ~now:(at 2.) ~next_hop:(Some up)
       (Store.From_neighbor (nid 2)) (key 1));
  let refresh =
    Update.refresh ~key:(key 1) ~entry:(entry ~replica:0 600.) ~level:3
  in
  let actions = Store.handle_update n ~node:me ~now:(at 3.) ~from:up refresh in
  Alcotest.(check int) "push level bounds the forward" 0
    (List.length (updates_sent actions));
  Alcotest.(check int) "but no clear-bit either" 0
    (List.length (clear_bits_sent actions))

let test_update_push_level_boundary_allows_forward () =
  (* a node at distance 3 may forward to level 4 under Push_level 4 *)
  let config = { cup_config with Store.policy = Policy.Push_level 4 } in
  let up = nid 9 in
  let n = node_with_cached ~config ~level:3 ~up () in
  ignore
    (handle_query n ~node:me ~now:(at 2.) ~next_hop:(Some up)
       (Store.From_neighbor (nid 2)) (key 1));
  let refresh =
    Update.refresh ~key:(key 1) ~entry:(entry ~replica:0 600.) ~level:3
  in
  let actions = Store.handle_update n ~node:me ~now:(at 3.) ~from:up refresh in
  Alcotest.(check int) "boundary level still forwards" 1
    (List.length (updates_sent actions))

let test_authority_local_query_is_free_hit () =
  let n = Store.create cup_config in
  Store.add_local_key n me (key 1);
  ignore (Store.replica_birth n ~node:me ~now:t0 ~key:(key 1) (entry 500.));
  let actions =
    handle_query n ~node:me ~now:(at 1.) ~next_hop:None
      (Store.From_local (at 1.))
      (key 1)
  in
  match local_answers actions with
  | [ (_, true, entries) ] ->
      Alcotest.(check int) "authority serves its directory" 1
        (List.length entries)
  | _ -> Alcotest.fail "expected a zero-cost hit at the authority"

let test_update_naive_vs_independent_cutoff () =
  (* With two replicas refreshing alternately and no queries, the
     naive node sees twice the update rate and cuts sooner. *)
  let run ~independent =
    let config =
      { Store.policy = Policy.second_chance;
        replica_independent_cutoff = independent }
    in
    let up = nid 9 in
    let n = node_with_cached ~config ~up () in
    let cuts = ref 0 and sent = ref 0 in
    (* alternate refreshes for replicas 0 and 1 *)
    for i = 1 to 4 do
      let replica = i mod 2 in
      let u =
        Update.refresh ~key:(key 1)
          ~entry:(entry ~replica (300. +. (100. *. float_of_int i)))
          ~level:3
      in
      let actions =
        Store.handle_update n ~node:me ~now:(at (10. *. float_of_int i))
          ~from:up u
      in
      incr sent;
      if clear_bits_sent actions <> [] then incr cuts
    done;
    !cuts
  in
  Alcotest.(check bool) "naive cuts within four mixed updates" true
    (run ~independent:false >= 1);
  (* Independent mode triggers only on replica-0 updates (i = 2, 4):
     dry streak reaches 2 only at the fourth update. *)
  Alcotest.(check int) "independent cuts exactly once, later" 1
    (run ~independent:true)

let test_update_delete_of_trigger_elects_new_trigger () =
  let up = nid 9 in
  let n = node_with_cached ~up () in
  (* The first per-replica update adopts its replica as the trigger:
     this dry append for replica 1 counts as dry update #1. *)
  let append =
    Update.append ~key:(key 1) ~entry:(entry ~replica:1 500.) ~level:3
  in
  let a0 = Store.handle_update n ~node:me ~now:(at 5.) ~from:up append in
  Alcotest.(check int) "first dry update tolerated" 0
    (List.length (clear_bits_sent a0));
  (* deleting the OTHER replica must not touch the decision state *)
  let delete =
    Update.delete ~key:(key 1) ~entry:(entry ~replica:0 300.) ~level:3
  in
  let a1 = Store.handle_update n ~node:me ~now:(at 6.) ~from:up delete in
  Alcotest.(check int) "non-trigger delete is silent" 0
    (List.length (clear_bits_sent a1));
  (* the next dry update for the trigger replica is dry update #2:
     second-chance cuts *)
  let refresh =
    Update.refresh ~key:(key 1) ~entry:(entry ~replica:1 600.) ~level:3
  in
  let a2 = Store.handle_update n ~node:me ~now:(at 7.) ~from:up refresh in
  Alcotest.(check int) "trigger replica drives the cut-off" 1
    (List.length (clear_bits_sent a2));
  (* now delete the trigger itself: the remaining replica is adopted,
     and a fresh query re-arms the subscription machinery *)
  let delete_trigger =
    Update.delete ~key:(key 1) ~entry:(entry ~replica:1 600.) ~level:3
  in
  let a3 =
    Store.handle_update n ~node:me ~now:(at 8.) ~from:up delete_trigger
  in
  Alcotest.(check int) "no duplicate clear-bit while cut" 0
    (List.length (clear_bits_sent a3))

(* {2 handle_clear_bit} *)

let test_clear_bit_cascades_up () =
  let up = nid 9 in
  let n = node_with_cached ~up () in
  ignore
    (handle_query n ~node:me ~now:(at 2.) ~next_hop:(Some up)
       (Store.From_neighbor (nid 2)) (key 1));
  (* exhaust the node's own popularity: the first refresh absorbs the
     neighbor's query, the next two are dry, while the downstream
     neighbor's bit holds the subscription open *)
  let refresh l =
    Update.refresh ~key:(key 1) ~entry:(entry ~replica:0 l) ~level:3
  in
  ignore (Store.handle_update n ~node:me ~now:(at 10.) ~from:up (refresh 400.));
  ignore (Store.handle_update n ~node:me ~now:(at 20.) ~from:up (refresh 500.));
  ignore (Store.handle_update n ~node:me ~now:(at 25.) ~from:up (refresh 600.));
  (* the downstream neighbor loses interest -> we are dry and
     bit-less -> cascade the clear-bit upstream *)
  let actions =
    Store.handle_clear_bit n ~node:me ~now:(at 30.) ~from:(nid 2) (key 1)
  in
  match clear_bits_sent actions with
  | [ (to_, _) ] ->
      Alcotest.(check int) "cascaded to upstream" 9 (Node_id.to_int to_)
  | _ -> Alcotest.fail "expected the cascade"

let test_clear_bit_stops_at_popular_node () =
  let up = nid 9 in
  let n = node_with_cached ~up () in
  ignore
    (handle_query n ~node:me ~now:(at 2.) ~next_hop:(Some up)
       (Store.From_neighbor (nid 2)) (key 1));
  (* the node itself is popular (fresh queries since last update) *)
  ignore
    (handle_query n ~node:me ~now:(at 3.) ~next_hop:(Some up)
       (Store.From_local (at 3.)) (key 1));
  let actions =
    Store.handle_clear_bit n ~node:me ~now:(at 4.) ~from:(nid 2) (key 1)
  in
  Alcotest.(check int) "popularity stops the cascade" 0
    (List.length (clear_bits_sent actions))

let test_clear_bit_at_authority () =
  let n = Store.create cup_config in
  Store.add_local_key n me (key 1);
  ignore (Store.replica_birth n ~node:me ~now:t0 ~key:(key 1) (entry 500.));
  ignore
    (handle_query n ~node:me ~now:(at 1.) ~next_hop:None
       (Store.From_neighbor (nid 2)) (key 1));
  let actions =
    Store.handle_clear_bit n ~node:me ~now:(at 2.) ~from:(nid 2) (key 1)
  in
  Alcotest.(check int) "authority absorbs the clear-bit" 0
    (List.length actions);
  (* subsequent refresh no longer goes to node 2 *)
  let a =
    Store.replica_refresh n ~node:me ~now:(at 3.) ~key:(key 1) (entry 900.)
  in
  Alcotest.(check int) "unsubscribed neighbor skipped" 0
    (List.length (updates_sent a))

(* {2 Authority origination} *)

let test_authority_origination () =
  let n = Store.create cup_config in
  Store.add_local_key n me (key 1);
  ignore
    (handle_query n ~node:me ~now:t0 ~next_hop:None
       (Store.From_neighbor (nid 2))
       (key 1));
  let birth =
    Store.replica_birth n ~node:me ~now:(at 1.) ~key:(key 1)
      (entry ~replica:7 400.)
  in
  (match updates_sent birth with
  | [ (to_, u, false) ] ->
      Alcotest.(check int) "append to interested" 2 (Node_id.to_int to_);
      Alcotest.(check string) "kind" "append" (Update.kind_to_string u.Update.kind)
  | _ -> Alcotest.fail "expected one append");
  let refresh =
    Store.replica_refresh n ~node:me ~now:(at 2.) ~key:(key 1)
      (entry ~replica:7 800.)
  in
  Alcotest.(check int) "refresh propagated" 1 (List.length (updates_sent refresh));
  let death =
    Store.replica_death n ~node:me ~now:(at 3.) ~key:(key 1) (rid 7)
  in
  (match updates_sent death with
  | [ (_, u, false) ] ->
      Alcotest.(check string) "delete" "delete" (Update.kind_to_string u.Update.kind)
  | _ -> Alcotest.fail "expected one delete");
  Alcotest.(check int) "directory empty" 0
    (List.length (Store.local_directory n me (key 1)));
  Alcotest.(check int) "death of unknown replica is a no-op" 0
    (List.length
       (Store.replica_death n ~node:me ~now:(at 4.) ~key:(key 1) (rid 99)))

let test_authority_refresh_batch () =
  let n = Store.create cup_config in
  Store.add_local_key n me (key 1);
  ignore
    (handle_query n ~node:me ~now:t0 ~next_hop:None
       (Store.From_neighbor (nid 2))
       (key 1));
  let entries = [ entry ~replica:1 400.; entry ~replica:2 500. ] in
  let actions =
    Store.replica_refresh_batch n ~node:me ~now:(at 1.) ~key:(key 1) entries
  in
  (match updates_sent actions with
  | [ (_, u, false) ] ->
      Alcotest.(check string) "one refresh update" "refresh"
        (Update.kind_to_string u.Update.kind);
      Alcotest.(check int) "carries both entries" 2
        (List.length u.Update.entries)
  | _ -> Alcotest.fail "expected exactly one batched update");
  Alcotest.(check int) "directory holds both" 2
    (List.length (Store.local_directory n me (key 1)));
  Alcotest.(check int) "empty batch is a no-op" 0
    (List.length
       (Store.replica_refresh_batch n ~node:me ~now:(at 2.) ~key:(key 1) []));
  Alcotest.check_raises "unowned key rejected"
    (Invalid_argument "Node_store.replica_refresh_batch: key not owned")
    (fun () ->
      ignore
        (Store.replica_refresh_batch n ~node:me ~now:(at 3.) ~key:(key 9)
           entries))

let test_authority_standard_caching_squelches () =
  let n = Store.create std_config in
  Store.add_local_key n me (key 1);
  ignore
    (handle_query n ~node:me ~now:t0 ~next_hop:None
       (Store.From_neighbor (nid 2))
       (key 1));
  let refresh =
    Store.replica_refresh n ~node:me ~now:(at 1.) ~key:(key 1) (entry 400.)
  in
  Alcotest.(check int) "standard caching pushes nothing" 0
    (List.length refresh)

(* {2 Churn support} *)

let test_churn_remap_and_retain () =
  let up = nid 9 in
  let n = node_with_cached ~up () in
  ignore
    (handle_query n ~node:me ~now:(at 2.) ~next_hop:(Some up)
       (Store.From_neighbor (nid 2)) (key 1));
  Store.remap_neighbor n ~node:me ~old_id:(nid 2) ~new_id:(nid 12);
  Alcotest.(check (list int)) "bit remapped" [ 12 ]
    (List.map Node_id.to_int (Store.interested_neighbors n me (key 1)));
  Store.retain_neighbors n ~node:me [ nid 9 ];
  Alcotest.(check (list int)) "stale bits dropped" []
    (List.map Node_id.to_int (Store.interested_neighbors n me (key 1)))

let test_churn_retain_resets_stuck_pending () =
  let n = Store.create cup_config in
  ignore
    (handle_query n ~node:me ~now:t0 ~next_hop:(Some (nid 7))
       (Store.From_local t0) (key 1));
  Alcotest.(check bool) "pending set" true (Store.pending_first n me (key 1));
  (* we never hear back; the upstream neighbor disappears *)
  Store.drop_neighbor n ~node:me (nid 7);
  (* the upstream was only recorded on update receipt, so dropping a
     neighbor that never answered cannot clear it; a retain without
     the neighbor can *)
  Store.retain_neighbors n ~node:me [];
  Alcotest.(check bool) "a later query can re-push" true
    (queries_sent
       (handle_query n ~node:me ~now:(at 1.) ~next_hop:(Some (nid 8))
          (Store.From_local (at 1.)) (key 1))
    <> [])

let test_churn_handover_merges_directories () =
  let a = Store.create cup_config and b = Store.create cup_config in
  let other = nid 1 in
  Store.add_local_key a me (key 1);
  ignore
    (Store.replica_birth a ~node:me ~now:t0 ~key:(key 1)
       (entry ~replica:1 100.));
  ignore
    (Store.replica_birth a ~node:me ~now:t0 ~key:(key 1)
       (entry ~replica:2 200.));
  let moved = Store.handover_local a me (key 1) in
  Alcotest.(check int) "entries extracted" 2 (List.length moved);
  Alcotest.(check bool) "ownership dropped" false (Store.owns a me (key 1));
  Store.add_local_key b other (key 1);
  ignore
    (Store.replica_birth b ~node:other ~now:t0 ~key:(key 1)
       (entry ~replica:2 500.));
  Store.receive_local b other (key 1) moved;
  let dir = Store.local_directory b other (key 1) in
  Alcotest.(check int) "merged without duplicates" 2 (List.length dir);
  let r2 =
    List.find (fun (e : Entry.t) -> Replica_id.to_int e.Entry.replica = 2) dir
  in
  Alcotest.(check (float 1e-9)) "later expiry wins" 500.
    (Time.to_seconds r2.Entry.expiry)

let test_duplicate_update_delivery_is_idempotent () =
  (* retransmission safety: delivering the same refresh twice leaves
     the same cache state, is forwarded only the first time (the
     duplicate carries no news — re-pushing it is how a rewired
     interest cycle amplifies one refresh into an update storm), and
     produces no extra clear-bits *)
  let up = nid 9 in
  let n = node_with_cached ~up () in
  ignore
    (handle_query n ~node:me ~now:(at 2.) ~next_hop:(Some up)
       (Store.From_neighbor (nid 2)) (key 1));
  let refresh =
    Update.refresh ~key:(key 1) ~entry:(entry ~replica:0 600.) ~level:3
  in
  let a1 = Store.handle_update n ~node:me ~now:(at 3.) ~from:up refresh in
  let entries_after_first =
    Store.fresh_entries n ~node:me ~now:(at 4.) (key 1)
  in
  let a2 = Store.handle_update n ~node:me ~now:(at 4.) ~from:up refresh in
  Alcotest.(check bool) "first delivery forwarded" true
    (List.length (updates_sent a1) > 0);
  Alcotest.(check int) "duplicate not re-forwarded" 0
    (List.length (updates_sent a2));
  Alcotest.(check int) "no clear-bits from duplicates" 0
    (List.length (clear_bits_sent a1) + List.length (clear_bits_sent a2));
  Alcotest.(check int) "cache state unchanged"
    (List.length entries_after_first)
    (List.length (Store.fresh_entries n ~node:me ~now:(at 5.) (key 1)))

(* {1 Protocol fuzzing}

   Throw random-but-well-formed event sequences at a node and check
   that no handler raises and the visible invariants hold:
   - local waiters exist only while the pending flag is set;
   - every action addresses some other node (never self);
   - fresh_entries never returns an expired entry. *)

type fuzz_op =
  | Op_local_query
  | Op_neighbor_query of int
  | Op_first_time of int * int (* neighbor, lifetime *)
  | Op_refresh of int * int * int (* neighbor, replica, lifetime *)
  | Op_append of int * int * int
  | Op_delete of int * int
  | Op_clear_bit of int
  | Op_advance of int (* seconds *)

let fuzz_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Op_local_query);
        (3, map (fun n -> Op_neighbor_query (n mod 4)) small_nat);
        ( 2,
          map2 (fun n l -> Op_first_time (n mod 4, 1 + (l mod 400))) small_nat
            small_nat );
        ( 3,
          map3
            (fun n r l -> Op_refresh (n mod 4, r mod 3, 1 + (l mod 400)))
            small_nat small_nat small_nat );
        ( 2,
          map3
            (fun n r l -> Op_append (n mod 4, r mod 3, 1 + (l mod 400)))
            small_nat small_nat small_nat );
        (1, map2 (fun n r -> Op_delete (n mod 4, r mod 3)) small_nat small_nat);
        (2, map (fun n -> Op_clear_bit (n mod 4)) small_nat);
        (3, map (fun s -> Op_advance (1 + (s mod 100))) small_nat);
      ])

let fuzz_policy_gen =
  QCheck.Gen.oneofl
    [
      Policy.Standard_caching;
      Policy.All_out;
      Policy.Push_level 2;
      Policy.Linear 0.1;
      Policy.Logarithmic 0.25;
      Policy.second_chance;
      Policy.Log_based 4;
    ]

let prop_node_fuzz =
  let gen =
    QCheck.Gen.(triple fuzz_policy_gen bool (list_size (int_range 1 60) fuzz_op_gen))
  in
  let arb = QCheck.make gen in
  QCheck.Test.make ~count:300 ~name:"random protocol traces keep invariants"
    arb
    (fun (policy, independent, ops) ->
      let config =
        { Store.policy; replica_independent_cutoff = independent }
      in
      let n = Store.create config in
      let k = key 1 in
      let clock = ref 0. in
      let neighbor i = nid (i + 1) in
      let check_actions actions =
        List.for_all
          (function
            | Store.Send_query { to_; _ }
            | Store.Send_update { to_; _ }
            | Store.Send_clear_bit { to_; _ } ->
                not (Node_id.equal to_ (nid 0))
            | Store.Answer_local _ -> true)
          actions
      in
      let ok = ref true in
      List.iter
        (fun op ->
          let now = at !clock in
          let actions =
            match op with
            | Op_local_query ->
                handle_query n ~node:me ~now ~next_hop:(Some (neighbor 0))
                  (Store.From_local now) k
            | Op_neighbor_query i ->
                handle_query n ~node:me ~now ~next_hop:(Some (neighbor 0))
                  (Store.From_neighbor (neighbor i))
                  k
            | Op_first_time (i, l) ->
                Store.handle_update n ~node:me ~now ~from:(neighbor i)
                  (Update.first_time ~key:k
                     ~entries:[ entry ~replica:0 (!clock +. float_of_int l) ]
                     ~level:2)
            | Op_refresh (i, r, l) ->
                Store.handle_update n ~node:me ~now ~from:(neighbor i)
                  (Update.refresh ~key:k
                     ~entry:(entry ~replica:r (!clock +. float_of_int l))
                     ~level:2)
            | Op_append (i, r, l) ->
                Store.handle_update n ~node:me ~now ~from:(neighbor i)
                  (Update.append ~key:k
                     ~entry:(entry ~replica:r (!clock +. float_of_int l))
                     ~level:2)
            | Op_delete (i, r) ->
                Store.handle_update n ~node:me ~now ~from:(neighbor i)
                  (Update.delete ~key:k ~entry:(entry ~replica:r !clock)
                     ~level:2)
            | Op_clear_bit i ->
                Store.handle_clear_bit n ~node:me ~now ~from:(neighbor i) k
            | Op_advance s ->
                clock := !clock +. float_of_int s;
                []
          in
          if not (check_actions actions) then ok := false;
          (* fresh entries really are fresh *)
          if
            List.exists
              (fun (e : Entry.t) -> not (Entry.is_fresh e ~now:(at !clock)))
              (Store.fresh_entries n ~node:me ~now:(at !clock) k)
          then ok := false)
        ops;
      !ok)

(* {1 Differential check against the reference store}

   [Node_store] and [Node_store_oracle] (the record, map and set
   implementation it replaced) run the same random scripts over several
   nodes and keys.  After every op the returned actions, the stats and
   every observable of every (node, key) pair must agree. *)

module Oracle = Node_store_oracle

let diff_nodes = 5
let diff_keys = 3

type diff_route = Hop of int | Owner | Stuck

type diff_op =
  | D_query of int * int option * int * diff_route * bool
      (* node, neighbor (None: local), key, route, owner *)
  | D_update of int * int * int * Update.kind * (int * int) list * int * bool
      (* node, from, key, kind, (replica, expiry delta), level, twice *)
  | D_clear_bit of int * int * int (* node, from, key *)
  | D_add_local of int * int
  | D_birth of int * int * (int * int)
  | D_refresh of int * int * (int * int)
  | D_refresh_batch of int * int * (int * int) list
  | D_death of int * int * int
  | D_remap of int * int * int
  | D_drop of int * int
  | D_retain of int * int list
  | D_handover of int * int
  | D_receive of int * int * (int * int) list
  | D_remove_node of int
  | D_advance of int

let show_entries es =
  String.concat ";" (List.map (fun (r, d) -> Printf.sprintf "r%d%+d" r d) es)

let show_diff_op = function
  | D_query (n, from, k, route, owner) ->
      Printf.sprintf "query n%d %s k%d %s%s" n
        (match from with
        | Some f -> Printf.sprintf "from n%d" f
        | None -> "local")
        k
        (match route with
        | Hop h -> Printf.sprintf "via n%d" h
        | Owner -> "owner-route"
        | Stuck -> "stuck")
        (if owner then " owner" else "")
  | D_update (n, f, k, kind, es, level, twice) ->
      Printf.sprintf "%s n%d from n%d k%d [%s] level %d%s"
        (Update.kind_to_string kind) n f k (show_entries es) level
        (if twice then " twice" else "")
  | D_clear_bit (n, f, k) -> Printf.sprintf "clear-bit n%d from n%d k%d" n f k
  | D_add_local (n, k) -> Printf.sprintf "add-local n%d k%d" n k
  | D_birth (n, k, e) ->
      Printf.sprintf "birth n%d k%d %s" n k (show_entries [ e ])
  | D_refresh (n, k, e) ->
      Printf.sprintf "refresh n%d k%d %s" n k (show_entries [ e ])
  | D_refresh_batch (n, k, es) ->
      Printf.sprintf "refresh-batch n%d k%d [%s]" n k (show_entries es)
  | D_death (n, k, r) -> Printf.sprintf "death n%d k%d r%d" n k r
  | D_remap (n, o, w) -> Printf.sprintf "remap n%d n%d->n%d" n o w
  | D_drop (n, m) -> Printf.sprintf "drop n%d n%d" n m
  | D_retain (n, ms) ->
      Printf.sprintf "retain n%d [%s]" n
        (String.concat ";" (List.map string_of_int ms))
  | D_handover (n, k) -> Printf.sprintf "handover n%d k%d" n k
  | D_receive (n, k, es) ->
      Printf.sprintf "receive n%d k%d [%s]" n k (show_entries es)
  | D_remove_node n -> Printf.sprintf "remove n%d" n
  | D_advance s -> Printf.sprintf "advance %ds" s

let diff_op_gen =
  let open QCheck.Gen in
  let node = int_bound (diff_nodes - 1) in
  (* one id past the store's nodes, for neighbors that hold no state *)
  let neighbor = int_bound diff_nodes in
  let key = int_bound (diff_keys - 1) in
  (* Few replicas and few distinct lifetimes, so entry lists repeat
     replicas and expiries tie; negative lifetimes arrive expired. *)
  let entry = pair (int_bound 3) (oneofl [ -10; 0; 5; 30; 100; 300 ]) in
  let entries lo = list_size (int_range lo 3) entry in
  let route =
    frequency
      [
        (8, map (fun h -> Hop h) neighbor); (1, return Owner); (1, return Stuck);
      ]
  in
  frequency
    [
      ( 12,
        map
          (fun (n, from, k, (route, owner)) ->
            D_query (n, from, k, route, owner))
          (quad node
             (frequency [ (1, return None); (3, map Option.some neighbor) ])
             key
             (pair route (frequency [ (9, return false); (1, return true) ])))
      );
      ( 12,
        map
          (fun ((n, f, k), (kind, es), (level, twice)) ->
            D_update (n, f, k, kind, es, level, twice))
          (triple (triple node neighbor key)
             ( oneofl [ Update.First_time; Delete; Refresh; Append ]
             >>= fun kind ->
               map
                 (fun es -> (kind, es))
                 (entries (if kind = Update.First_time then 0 else 1)) )
             (pair (int_range 1 4)
                (frequency [ (4, return false); (1, return true) ]))) );
      (3, map3 (fun n f k -> D_clear_bit (n, f, k)) node neighbor key);
      (2, map2 (fun n k -> D_add_local (n, k)) node key);
      (2, map3 (fun n k e -> D_birth (n, k, e)) node key entry);
      (2, map3 (fun n k e -> D_refresh (n, k, e)) node key entry);
      (1, map3 (fun n k es -> D_refresh_batch (n, k, es)) node key (entries 0));
      (2, map3 (fun n k (r, _) -> D_death (n, k, r)) node key entry);
      (1, map3 (fun n o w -> D_remap (n, o, w)) node neighbor neighbor);
      (1, map2 (fun n m -> D_drop (n, m)) node neighbor);
      ( 1,
        map2
          (fun n ms -> D_retain (n, ms))
          node
          (list_size (int_bound 3) neighbor) );
      (1, map2 (fun n k -> D_handover (n, k)) node key);
      (1, map3 (fun n k es -> D_receive (n, k, es)) node key (entries 0));
      (1, map (fun n -> D_remove_node n) node);
      (4, map (fun s -> D_advance (1 + s)) (int_bound 59));
    ]

let diff_policy_gen =
  QCheck.Gen.oneofl
    [
      Policy.Standard_caching;
      Policy.All_out;
      Policy.Push_level 1;
      Policy.Push_level 2;
      Policy.Linear 0.5;
      Policy.Logarithmic 1.;
      Policy.second_chance;
      Policy.Log_based 4;
    ]

(* What the tests can see of one store, compared after every op. *)
type pair_view = {
  distance : int option;
  pending : bool;
  interested : Node_id.t list;
  directory : Entry.t list;
  fresh : Entry.t list; (* last: reading it prunes *)
}

type view = {
  stats : Store.stats;
  live_slots : int;
  nodes : Node_id.t list;
  keys : (Key.t list * Key.t list) list; (* cached, owned; per node *)
  pairs : pair_view list;
}

module type STORE = sig
  type t

  val stats : t -> Store.stats
  val live_slots : t -> int
  val nodes : t -> Node_id.t list
  val remove_node : t -> Node_id.t -> unit

  val handle_query :
    t ->
    node:Node_id.t ->
    now:Time.t ->
    owner:bool ->
    route:(Node_id.t -> Key.t -> Route.hop) ->
    Store.source ->
    Key.t ->
    Store.action list

  val handle_update :
    t -> node:Node_id.t -> now:Time.t -> from:Node_id.t -> Update.t ->
    Store.action list

  val handle_clear_bit :
    t -> node:Node_id.t -> now:Time.t -> from:Node_id.t -> Key.t ->
    Store.action list

  val add_local_key : t -> Node_id.t -> Key.t -> unit
  val local_directory : t -> Node_id.t -> Key.t -> Entry.t list

  val replica_birth :
    t -> node:Node_id.t -> now:Time.t -> key:Key.t -> Entry.t ->
    Store.action list

  val replica_refresh :
    t -> node:Node_id.t -> now:Time.t -> key:Key.t -> Entry.t ->
    Store.action list

  val replica_refresh_batch :
    t -> node:Node_id.t -> now:Time.t -> key:Key.t -> Entry.t list ->
    Store.action list

  val replica_death :
    t -> node:Node_id.t -> now:Time.t -> key:Key.t -> Replica_id.t ->
    Store.action list

  val remap_neighbor :
    t -> node:Node_id.t -> old_id:Node_id.t -> new_id:Node_id.t -> unit

  val drop_neighbor : t -> node:Node_id.t -> Node_id.t -> unit
  val retain_neighbors : t -> node:Node_id.t -> Node_id.t list -> unit
  val handover_local : t -> Node_id.t -> Key.t -> Entry.t list
  val receive_local : t -> Node_id.t -> Key.t -> Entry.t list -> unit
  val fresh_entries :
    t -> node:Node_id.t -> now:Time.t -> Key.t -> Entry.t list

  val pending_first : t -> Node_id.t -> Key.t -> bool
  val interested_neighbors : t -> Node_id.t -> Key.t -> Node_id.t list
  val distance_of : t -> Node_id.t -> Key.t -> int option
  val cached_keys : t -> Node_id.t -> Key.t list
  val owned_keys : t -> Node_id.t -> Key.t list
end

module Drive (S : STORE) = struct
  let entries ~clock es =
    List.map (fun (r, d) -> entry ~replica:r (clock +. float_of_int d)) es

  (* The actions an op returns, with the directory [handover_local]
     returns, or the message of the [Invalid_argument] an authority op
     raises for a key not owned. *)
  let apply store ~clock op =
    let now = at clock and entries = entries ~clock in
    let entry e = List.hd (entries [ e ]) in
    let handed = ref [] in
    match
      match op with
      | D_query (n, from, k, route, owner) ->
          let source =
            match from with
            | Some f -> Store.From_neighbor (nid f)
            | None -> Store.From_local now
          in
          let route _ _ =
            match route with
            | Hop h -> Route.Forward (nid h)
            | Owner -> Route.Owner
            | Stuck -> Route.Stuck Route.No_progress
          in
          S.handle_query store ~node:(nid n) ~now ~owner ~route source (key k)
      | D_update (n, f, k, kind, es, level, _) ->
          S.handle_update store ~node:(nid n) ~now ~from:(nid f)
            { Update.key = key k; kind; entries = entries es; level }
      | D_clear_bit (n, f, k) ->
          S.handle_clear_bit store ~node:(nid n) ~now ~from:(nid f) (key k)
      | D_add_local (n, k) ->
          S.add_local_key store (nid n) (key k);
          []
      | D_birth (n, k, e) ->
          S.replica_birth store ~node:(nid n) ~now ~key:(key k) (entry e)
      | D_refresh (n, k, e) ->
          S.replica_refresh store ~node:(nid n) ~now ~key:(key k) (entry e)
      | D_refresh_batch (n, k, es) ->
          S.replica_refresh_batch store ~node:(nid n) ~now ~key:(key k)
            (entries es)
      | D_death (n, k, r) ->
          S.replica_death store ~node:(nid n) ~now ~key:(key k) (rid r)
      | D_remap (n, old_id, new_id) ->
          S.remap_neighbor store ~node:(nid n) ~old_id:(nid old_id)
            ~new_id:(nid new_id);
          []
      | D_drop (n, m) ->
          S.drop_neighbor store ~node:(nid n) (nid m);
          []
      | D_retain (n, ms) ->
          S.retain_neighbors store ~node:(nid n) (List.map nid ms);
          []
      | D_handover (n, k) ->
          handed := S.handover_local store (nid n) (key k);
          []
      | D_receive (n, k, es) ->
          S.receive_local store (nid n) (key k) (entries es);
          []
      | D_remove_node n ->
          S.remove_node store (nid n);
          []
      | D_advance _ -> []
    with
    | actions -> Ok (actions, !handed)
    | exception Invalid_argument msg -> Error msg

  let view store ~clock =
    let now = at clock in
    let node_ids = List.init (diff_nodes + 1) nid in
    let key_ids = List.init diff_keys key in
    {
      stats = S.stats store;
      live_slots = S.live_slots store;
      nodes = S.nodes store;
      keys =
        List.map
          (fun n -> (S.cached_keys store n, S.owned_keys store n))
          node_ids;
      pairs =
        List.concat_map
          (fun n ->
            List.map
              (fun k ->
                let distance = S.distance_of store n k in
                let pending = S.pending_first store n k in
                let interested = S.interested_neighbors store n k in
                let directory = S.local_directory store n k in
                let fresh = S.fresh_entries store ~node:n ~now k in
                { distance; pending; interested; directory; fresh })
              key_ids)
          node_ids;
    }
end

module Drive_store = Drive (Store)
module Drive_oracle = Drive (Oracle)

let prop_store_matches_oracle =
  let gen =
    QCheck.Gen.(
      triple diff_policy_gen bool (list_size (int_range 1 80) diff_op_gen))
  in
  let print (policy, independent, ops) =
    Printf.sprintf "%s, independent cut-off %b:\n%s" (Policy.to_string policy)
      independent
      (String.concat "\n" (List.map show_diff_op ops))
  in
  QCheck.Test.make ~count:500
    ~name:"store matches the reference on random scripts"
    (QCheck.make ~print gen)
    (fun (policy, independent, ops) ->
      let config = { Store.policy; replica_independent_cutoff = independent } in
      let s = Store.create ~nodes:2 config in
      let o = Oracle.create ~nodes:2 config in
      let clock = ref 0. in
      List.iter
        (fun op ->
          let name = show_diff_op op in
          let twice =
            match op with D_update (_, _, _, _, _, _, t) -> t | _ -> false
          in
          for _ = 1 to if twice then 2 else 1 do
            if
              Drive_store.apply s ~clock:!clock op
              <> Drive_oracle.apply o ~clock:!clock op
            then QCheck.Test.fail_reportf "%s: actions differ" name
          done;
          (match op with
          | D_advance secs -> clock := !clock +. float_of_int secs
          | _ -> ());
          let a = Drive_store.view s ~clock:!clock
          and b = Drive_oracle.view o ~clock:!clock in
          List.iter
            (fun (what, same) ->
              if not same then
                QCheck.Test.fail_reportf "%s: %s differ" name what)
            [
              ("stats", a.stats = b.stats);
              ("live_slots", a.live_slots = b.live_slots);
              ("nodes", a.nodes = b.nodes);
              ("cached or owned keys", a.keys = b.keys);
              ("per-pair observables", a.pairs = b.pairs);
            ])
        ops;
      true)

(* {1 Memory per state}

   20,000 cached states, each queried by two neighbors, answered with
   two replicas and refreshed twice: the steady state of a popular key.
   The record-and-map layout held about 52 live words per state; the
   flat one holds about 32. *)
let test_store_words_per_state () =
  let nodes = 1000 and keys = 20 in
  let up = nid nodes in
  let route _ _ = Route.Forward up in
  let at_level kind replica expiry =
    { Update.key = key 0; kind; entries = [ entry ~replica expiry ]; level = 2 }
  in
  let build () =
    let store = Store.create ~nodes Store.default_config in
    for n = 0 to nodes - 1 do
      let node = nid n in
      for k = 0 to keys - 1 do
        let k = key k and now = at 1. in
        List.iter
          (fun neighbor ->
            ignore
              (Store.handle_query store ~node ~now ~owner:false ~route
                 (Store.From_neighbor (nid ((n + neighbor) mod nodes)))
                 k))
          [ 1; 2 ];
        let update (u : Update.t) =
          ignore
            (Store.handle_update store ~node ~now ~from:up { u with key = k })
        in
        update
          (Update.first_time ~key:k
             ~entries:[ entry ~replica:0 100.; entry ~replica:1 100. ]
             ~level:2);
        update (at_level Update.Refresh 0 200.);
        update (at_level Update.Refresh 1 200.)
      done
    done;
    store
  in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let store = build () in
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  let states = Store.live_slots (Sys.opaque_identity store) in
  Alcotest.(check int) "states" (nodes * keys) states;
  let per_state = float_of_int (after - before) /. float_of_int states in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f live words per state <= 40" per_state)
    true (per_state <= 40.)

let () =
  Alcotest.run "cup_proto"
    [
      ( "policy",
        [
          Alcotest.test_case "all-out" `Quick test_policy_all_out_keeps;
          Alcotest.test_case "linear" `Quick test_policy_linear;
          Alcotest.test_case "logarithmic" `Quick test_policy_logarithmic;
          Alcotest.test_case "log more lenient" `Quick
            test_policy_log_more_lenient_than_linear;
          Alcotest.test_case "second chance" `Quick test_policy_second_chance;
          Alcotest.test_case "sender limit" `Quick test_policy_sender_limit;
          Alcotest.test_case "classification" `Quick
            test_policy_classification;
        ] );
      ( "update",
        [
          Alcotest.test_case "forwarded level" `Quick
            test_update_forwarded_increments_level;
          Alcotest.test_case "subject" `Quick test_update_subject;
          Alcotest.test_case "expiry" `Quick test_update_expiry;
        ] );
      ( "update_queue",
        [
          Alcotest.test_case "latency-first order" `Quick
            test_queue_latency_first_ordering;
          Alcotest.test_case "flash-crowd order" `Quick
            test_queue_flash_crowd_promotes_appends;
          Alcotest.test_case "fifo" `Quick test_queue_fifo;
          Alcotest.test_case "expiry urgency" `Quick test_queue_expiry_urgency;
          Alcotest.test_case "pop drops expired" `Quick
            test_queue_pop_drops_expired;
          Alcotest.test_case "drop expired" `Quick test_queue_drop_expired;
          QCheck_alcotest.to_alcotest prop_queue_pop_order_stable;
        ] );
      ( "interest",
        [
          Alcotest.test_case "ops" `Quick test_interest_ops;
          Alcotest.test_case "remap" `Quick test_interest_remap;
        ] );
      ( "node queries",
        [
          Alcotest.test_case "case 1: neighbor" `Quick
            test_query_case1_fresh_cache_answers_neighbor;
          Alcotest.test_case "case 1: local hit" `Quick
            test_query_case1_local_hit;
          Alcotest.test_case "case 2: cold" `Quick
            test_query_case2_cold_pushes_and_sets_pending;
          Alcotest.test_case "case 2: coalesce" `Quick
            test_query_case2_coalesces;
          Alcotest.test_case "standard never coalesces" `Quick
            test_query_standard_does_not_coalesce;
          Alcotest.test_case "case 3: expired" `Quick
            test_query_case3_expired_repushes;
          Alcotest.test_case "authority answers" `Quick
            test_query_authority_answers_from_directory;
          Alcotest.test_case "empty authority" `Quick
            test_query_becomes_empty_authority;
          Alcotest.test_case "routes only when pushing" `Quick
            test_query_routes_only_when_pushing;
          Alcotest.test_case "unroutable leaves no state" `Quick
            test_query_unroutable_leaves_no_state;
        ] );
      ( "node updates",
        [
          Alcotest.test_case "first-time answers + forwards" `Quick
            test_update_first_time_answers_waiters_and_forwards;
          Alcotest.test_case "refresh extends" `Quick
            test_update_refresh_extends_freshness;
          Alcotest.test_case "delete removes" `Quick
            test_update_delete_removes_entry;
          Alcotest.test_case "expired dropped" `Quick
            test_update_expired_dropped;
          Alcotest.test_case "forward to interested only" `Quick
            test_update_forwards_to_interested_only;
          Alcotest.test_case "second chance cut" `Quick
            test_update_second_chance_cuts_after_two_dry;
          Alcotest.test_case "query resets streak" `Quick
            test_update_query_resets_dry_streak;
          Alcotest.test_case "push level bound" `Quick
            test_update_push_level_limits_forwarding;
          Alcotest.test_case "push level boundary" `Quick
            test_update_push_level_boundary_allows_forward;
          Alcotest.test_case "naive vs independent" `Quick
            test_update_naive_vs_independent_cutoff;
          Alcotest.test_case "trigger re-election" `Quick
            test_update_delete_of_trigger_elects_new_trigger;
          Alcotest.test_case "duplicate delivery idempotent" `Quick
            test_duplicate_update_delivery_is_idempotent;
        ] );
      ( "clear bits",
        [
          Alcotest.test_case "cascades up" `Quick test_clear_bit_cascades_up;
          Alcotest.test_case "stops at popular node" `Quick
            test_clear_bit_stops_at_popular_node;
          Alcotest.test_case "authority" `Quick test_clear_bit_at_authority;
        ] );
      ( "authority",
        [
          Alcotest.test_case "origination" `Quick test_authority_origination;
          Alcotest.test_case "local query is free" `Quick
            test_authority_local_query_is_free_hit;
          Alcotest.test_case "refresh batch" `Quick
            test_authority_refresh_batch;
          Alcotest.test_case "standard squelches" `Quick
            test_authority_standard_caching_squelches;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_node_fuzz;
          QCheck_alcotest.to_alcotest prop_store_matches_oracle;
        ] );
      ( "store memory",
        [
          Alcotest.test_case "words per cached state" `Quick
            test_store_words_per_state;
        ] );
      ( "churn",
        [
          Alcotest.test_case "remap + retain" `Quick
            test_churn_remap_and_retain;
          Alcotest.test_case "stuck pending reset" `Quick
            test_churn_retain_resets_stuck_pending;
          Alcotest.test_case "handover merge" `Quick
            test_churn_handover_merges_directories;
        ] );
    ]
