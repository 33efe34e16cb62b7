(* Reference protocol state machine for the tests: [Node_store] as it
   was before its state went flat.  One record per (node, key) state in
   two chained [Pair_table]s, cached entries in a [Replica_id.Map]
   and interest and waiting sets as [Node_id.Set]s, so it is slower but
   plain.  [test_proto] drives it and [Node_store] with the same random
   scripts and compares every action list and observable. *)

module Key = Cup_overlay.Key
module Node_id = Cup_overlay.Node_id
module Node_key = Cup_overlay.Node_key
module Time = Cup_dess.Time
module Entry = Cup_proto.Entry
module Policy = Cup_proto.Policy
module Replica_id = Cup_proto.Replica_id
module Update = Cup_proto.Update
module Store = Cup_proto.Node_store

(* The chained table the store kept its states in, over the packed
   pair's own mix. *)
module Pair_table = Hashtbl.Make (struct
  type t = Node_key.t

  let equal (a : t) (b : t) = Int.equal (a :> int) (b :> int)
  let hash = Node_key.hash
end)

type config = Store.config = {
  policy : Policy.t;
  replica_independent_cutoff : bool;
}

type source = Store.source = From_neighbor of Node_id.t | From_local of Time.t

type action = Store.action =
  | Send_query of { to_ : Node_id.t; key : Key.t }
  | Send_update of { to_ : Node_id.t; update : Update.t; answering : bool }
  | Send_clear_bit of { to_ : Node_id.t; key : Key.t }
  | Answer_local of {
      key : Key.t;
      entries : Entry.t list;
      posted_at : Time.t list;
      hit : bool;
    }

type stats = Store.stats = {
  mutable queries_in : int;
  mutable queries_coalesced : int;
  mutable cache_answers : int;
  mutable updates_in : int;
  mutable updates_forwarded : int;
  mutable clear_bits_sent : int;
  mutable clear_bits_in : int;
  mutable expired_updates_dropped : int;
}

(* The interest bit vector as a mutable set of neighbor ids. *)
module Interest = struct
  module Set = Node_id.Set

  type t = { mutable members : Set.t }

  let create () = { members = Set.empty }
  let set t id = t.members <- Set.add id t.members
  let clear t id = t.members <- Set.remove id t.members
  let any t = not (Set.is_empty t.members)
  let interested t = Set.elements t.members

  let remap t ~old_id ~new_id =
    if Set.mem old_id t.members then
      t.members <- Set.add new_id (Set.remove old_id t.members)
end

(* State for one (node, key) pair.  A cached (non-local) key uses every
   field: the Section 2.3 bookkeeping.  An owned key's authority state
   uses only [entries], as its slice of the local index directory, and
   [interest], for the neighbors that queried it; its other fields keep
   their initial values, which no churn patch below ever matches. *)
type state = {
  key : Key.t;
  mutable entries : Entry.t Replica_id.Map.t;
  mutable pending_first : bool;
  interest : Interest.t;
  mutable queries_since_update : int;
  mutable dry_updates : int; (* consecutive trigger updates with 0 queries *)
  mutable distance : int; (* hops from the authority, from update levels *)
  mutable trigger : Replica_id.t option; (* replica-independent cut-off *)
  mutable upstream : int; (* node we receive updates from; [none] if unknown *)
  mutable cut_sent : bool; (* clear-bit pushed and not yet re-subscribed *)
  mutable waiters : Time.t list; (* open local client connections *)
  mutable waiting : Node_id.Set.t;
      (* neighbors whose query we absorbed and owe a response to;
         always a subset of the interested set *)
  mutable queried_to : int;
      (* where the pending query instance was pushed, or [none]; lets
         churn patching un-stick the pending flag if that hop
         disappears *)
  mutable next : state; (* the owning node's next state; [nil] ends it *)
}

(* Node ids are non-negative, so [none] never matches one. *)
let none = -1

(* Ends every node's chain, and holds the initial value of every field
   a new state does not set itself.  Never mutated. *)
let rec nil =
  {
    key = Key.of_int 0;
    entries = Replica_id.Map.empty;
    pending_first = false;
    interest = Interest.create ();
    queries_since_update = 0;
    dry_updates = 0;
    distance = 1;
    trigger = None;
    upstream = none;
    cut_sent = false;
    waiters = [];
    waiting = Node_id.Set.empty;
    queried_to = none;
    next = nil;
  }

let fresh_state key = { nil with key; interest = Interest.create () }

(* Every node's states live in two tables keyed by the packed
   (node, key) pair, and each node's states are also chained through
   [next] from [heads.(node)], so churn patching and [remove_node] walk
   one node's states without a table per node. *)
type t = {
  config : config;
  stats : stats; (* summed over every node in the store *)
  cache : state Pair_table.t; (* cached-key states *)
  local : state Pair_table.t;
      (* authority states.  A node's cached state and its authority
         state for one key legally coexist across churn, so each kind
         has its own table. *)
  mutable heads : state array; (* node id -> first state of its chain *)
}

let create ?(nodes = 16) config =
  {
    config;
    stats =
      {
        queries_in = 0;
        queries_coalesced = 0;
        cache_answers = 0;
        updates_in = 0;
        updates_forwarded = 0;
        clear_bits_sent = 0;
        clear_bits_in = 0;
        expired_updates_dropped = 0;
      };
    (* The tables start small and grow: most (node, key) pairs never
       hold state, so sizing them by [nodes] only costs set-up time. *)
    cache = Pair_table.create 1024;
    local = Pair_table.create 256;
    heads = Array.make nodes nil;
  }

let stats t = t.stats
let live_slots t =
  Pair_table.length t.cache + Pair_table.length t.local

let head t node =
  let n = Node_id.to_int node in
  if n < Array.length t.heads then t.heads.(n) else nil

let iter_node t node f =
  let rec go state =
    if state != nil then begin
      f state;
      go state.next
    end
  in
  go (head t node)

let add_state t table node key =
  let state = fresh_state key in
  let n = Node_id.to_int node in
  let len = Array.length t.heads in
  if n >= len then begin
    let grown = Array.make (Stdlib.max (n + 1) (2 * len)) nil in
    Array.blit t.heads 0 grown 0 len;
    t.heads <- grown
  end;
  state.next <- t.heads.(n);
  t.heads.(n) <- state;
  (* Callers add only absent pairs, so skip [replace]'s bucket scan. *)
  Pair_table.add table (Node_key.pack node key) state;
  state

let unlink t node state =
  let n = Node_id.to_int node in
  if t.heads.(n) == state then t.heads.(n) <- state.next
  else begin
    let prev = ref t.heads.(n) in
    while !prev.next != state do
      prev := !prev.next
    done;
    !prev.next <- state.next
  end

let find_cache t node key =
  Pair_table.find_opt t.cache (Node_key.pack node key)

let find_local t node key =
  Pair_table.find_opt t.local (Node_key.pack node key)

let get_state t node key =
  match Pair_table.find t.cache (Node_key.pack node key) with
  | state -> state
  | exception Not_found -> add_state t t.cache node key

let prune_expired entries ~now =
  Replica_id.Map.filter (fun _ e -> Entry.is_fresh e ~now) entries

let fresh_entry_list state ~now =
  state.entries <- prune_expired state.entries ~now;
  List.map snd (Replica_id.Map.bindings state.entries)

let nodes t =
  let acc = ref [] in
  for n = Array.length t.heads - 1 downto 0 do
    if t.heads.(n) != nil then acc := Node_id.of_int n :: !acc
  done;
  !acc

(* Every state of a departed node goes.  A node can hold a cached and
   an authority state for the same key, both on its chain, so each
   state's pair is dropped from both tables. *)
let remove_node t node =
  iter_node t node (fun state ->
      let packed = Node_key.pack node state.key in
      Pair_table.remove t.cache packed;
      Pair_table.remove t.local packed);
  let n = Node_id.to_int node in
  if n < Array.length t.heads then t.heads.(n) <- nil

(* {2 Authority side} *)

let add_local_key t node key =
  if not (Pair_table.mem t.local (Node_key.pack node key)) then
    ignore (add_state t t.local node key)

let owns t node key = Pair_table.mem t.local (Node_key.pack node key)

let local_directory t node key =
  match find_local t node key with
  | Some ls -> List.map snd (Replica_id.Map.bindings ls.entries)
  | None -> []

(* Originate an update at the authority (distance 0): push to every
   interested neighbor, unless the policy bounds propagation at the
   sender and level 1 already exceeds the bound. *)
let originate t ls (update : Update.t) =
  let allowed =
    match Policy.sender_limit t.config.policy with
    | Some p -> 1 <= p
    | None -> true
  in
  if not allowed then []
  else
    List.map
      (fun neighbor ->
        t.stats.updates_forwarded <- t.stats.updates_forwarded + 1;
        Send_update { to_ = neighbor; update; answering = false })
      (Interest.interested ls.interest)

let local_exn t node key op =
  match find_local t node key with
  | Some ls -> ls
  | None -> invalid_arg ("Node." ^ op ^ ": key not owned")

let replica_birth t ~node ~now:_ ~key entry =
  let ls = local_exn t node key "replica_birth" in
  ls.entries <- Replica_id.Map.add entry.Entry.replica entry ls.entries;
  originate t ls (Update.append ~key ~entry ~level:1)

let replica_refresh t ~node ~now:_ ~key entry =
  let ls = local_exn t node key "replica_refresh" in
  ls.entries <- Replica_id.Map.add entry.Entry.replica entry ls.entries;
  originate t ls (Update.refresh ~key ~entry ~level:1)

let replica_refresh_batch t ~node ~now:_ ~key entries =
  let ls = local_exn t node key "replica_refresh_batch" in
  match entries with
  | [] -> []
  | entries ->
      ls.entries <-
        List.fold_left
          (fun dir (e : Entry.t) -> Replica_id.Map.add e.replica e dir)
          ls.entries entries;
      let update =
        { (Update.refresh ~key ~entry:(List.hd entries) ~level:1) with
          Update.entries }
      in
      originate t ls update

let replica_death t ~node ~now:_ ~key replica =
  let ls = local_exn t node key "replica_death" in
  match Replica_id.Map.find_opt replica ls.entries with
  | None -> []
  | Some entry ->
      ls.entries <- Replica_id.Map.remove replica ls.entries;
      originate t ls (Update.delete ~key ~entry ~level:1)

(* {2 Queries (Section 2.5)} *)

let answer_as_authority t ls ~now key source =
  ls.entries <- prune_expired ls.entries ~now;
  let entries = List.map snd (Replica_id.Map.bindings ls.entries) in
  match source with
  | From_local posted ->
      [ Answer_local { key; entries; posted_at = [ posted ]; hit = true } ]
  | From_neighbor from ->
      Interest.set ls.interest from;
      let update = Update.first_time ~key ~entries ~level:1 in
      t.stats.updates_forwarded <- t.stats.updates_forwarded + 1;
      [ Send_update { to_ = from; update; answering = true } ]

(* Where a query for a key this node does not own pushes its query
   instance, given the key's [cached] state and its [fresh] entries:
   [none] when the node answers it from fresh entries or coalesces it
   into a pending instance, else [route]'s next hop, or [unroutable]
   when [route] has none.  Decided before the query changes any state,
   so an unroutable query leaves none behind. *)
let unroutable = -2

let push_target t ~node ~route key cached fresh =
  let pushes =
    Replica_id.Map.is_empty fresh
    &&
    match cached with
    | Some state ->
        not (state.pending_first && Policy.coalesces_queries t.config.policy)
    | None -> true
  in
  if not pushes then none
  else
    match route node key with
    | Cup_overlay.Route.Forward hop -> Node_id.to_int hop
    | Cup_overlay.Route.Owner | Cup_overlay.Route.Stuck _ -> unroutable

let handle_query t ~node ~now ~owner ~route source key =
  match find_local t node key with
  | Some ls ->
      t.stats.queries_in <- t.stats.queries_in + 1;
      t.stats.cache_answers <- t.stats.cache_answers + 1;
      answer_as_authority t ls ~now key source
  | None when owner ->
      (* Our zone contains the key but we have no directory for it:
         become its (empty) authority. *)
      t.stats.queries_in <- t.stats.queries_in + 1;
      answer_as_authority t (add_state t t.local node key) ~now key source
  | None ->
      let cached = find_cache t node key in
      let fresh =
        match cached with
        | Some state -> prune_expired state.entries ~now
        | None -> Replica_id.Map.empty
      in
      let target = push_target t ~node ~route key cached fresh in
      if target = unroutable then []
      else begin
        t.stats.queries_in <- t.stats.queries_in + 1;
        let state =
          match cached with
          | Some state -> state
          | None -> add_state t t.cache node key
        in
        state.entries <- fresh;
        (* Bookkeeping common to all three cases. *)
        state.queries_since_update <- state.queries_since_update + 1;
        (match source with
        | From_neighbor from -> Interest.set state.interest from
        | From_local _ -> ());
        match List.map snd (Replica_id.Map.bindings fresh) with
        | _ :: _ as entries -> (
            (* Case 1: fresh entries cached — answer immediately. *)
            t.stats.cache_answers <- t.stats.cache_answers + 1;
            match source with
            | From_local posted ->
                [
                  Answer_local
                    { key; entries; posted_at = [ posted ]; hit = true };
                ]
            | From_neighbor from ->
                let update =
                  Update.first_time ~key ~entries ~level:(state.distance + 1)
                in
                t.stats.updates_forwarded <- t.stats.updates_forwarded + 1;
                [ Send_update { to_ = from; update; answering = true } ])
        | [] ->
            (* Cases 2 and 3: no usable entries.  Queue local clients;
               push one query instance unless one is already pending. *)
            (match source with
            | From_local posted -> state.waiters <- posted :: state.waiters
            | From_neighbor from ->
                state.waiting <- Node_id.Set.add from state.waiting);
            if target = none then begin
              t.stats.queries_coalesced <- t.stats.queries_coalesced + 1;
              []
            end
            else begin
              state.pending_first <- true;
              state.cut_sent <- false;
              state.queried_to <- target;
              [ Send_query { to_ = Node_id.of_int target; key } ]
            end
      end

(* {2 Updates (Section 2.6)} *)

(* Apply [u] to the key's cached entry set.  Returns whether the cache
   actually changed: a no-news arrival — a duplicated delivery, or an
   update that travelled a (fault-rewired) interest cycle back around —
   must not be forwarded again, or the cycle amplifies it into an
   update storm. *)
let apply_update state (u : Update.t) =
  match u.kind with
  | First_time ->
      let entries =
        List.fold_left
          (fun m (e : Entry.t) -> Replica_id.Map.add e.replica e m)
          Replica_id.Map.empty u.entries
      in
      let changed =
        not
          (Replica_id.Map.equal
             (fun (a : Entry.t) (b : Entry.t) -> a.expiry = b.expiry)
             state.entries entries)
      in
      state.entries <- entries;
      changed
  | Refresh | Append ->
      (* Last-writer-wins by expiry: an entry at or below the cached
         expiry is no news — discarded, so a reordered or duplicated
         channel can never regress the cache to older data.  In-order
         tree-shaped propagation always carries strictly fresher
         expiries, making the guard a no-op there. *)
      List.fold_left
        (fun changed (e : Entry.t) ->
          match Replica_id.Map.find_opt e.replica state.entries with
          | Some (prev : Entry.t) when Time.(prev.expiry >= e.expiry) ->
              changed
          | Some _ | None ->
              state.entries <- Replica_id.Map.add e.replica e state.entries;
              true)
        false u.entries
  | Delete ->
      List.fold_left
        (fun changed (e : Entry.t) ->
          let present = Replica_id.Map.mem e.replica state.entries in
          state.entries <- Replica_id.Map.remove e.replica state.entries;
          (* A deleted trigger replica cannot trigger decisions any
             more: adopt another cached replica (or none). *)
          if state.trigger = Some e.replica then
            state.trigger <-
              (match Replica_id.Map.min_binding_opt state.entries with
              | Some (r, _) -> Some r
              | None -> None);
          changed || present)
        false u.entries

(* Forward an update to every interested neighbor, respecting a
   sender-side push-level bound.  Answers to waiting neighbors do not
   go through here — this path is purely proactive propagation. *)
let forward_update t state (u : Update.t) =
  let next = Update.forwarded u in
  let allowed =
    match Policy.sender_limit t.config.policy with
    | Some p -> next.Update.level <= p
    | None -> true
  in
  if not allowed then []
  else
    List.map
      (fun neighbor ->
        t.stats.updates_forwarded <- t.stats.updates_forwarded + 1;
        Send_update { to_ = neighbor; update = next; answering = false })
      (Interest.interested state.interest)

(* Whether this arrival triggers the cut-off evaluation (and the
   popularity reset).  Always in naive mode; only for the trigger
   replica (adopting one if none) in replica-independent mode.
   First-time updates always count: they are query responses, not
   per-replica refreshes. *)
let is_trigger_arrival t state (u : Update.t) =
  if not t.config.replica_independent_cutoff then true
  else
    match Update.subject u with
    | None -> true
    | Some replica -> (
        match state.trigger with
        | None ->
            state.trigger <- Some replica;
            true
        | Some r -> Replica_id.equal r replica)

let record_trigger_arrival state =
  if state.queries_since_update = 0 then
    state.dry_updates <- state.dry_updates + 1
  else state.dry_updates <- 0;
  state.queries_since_update <- 0

let handle_update t ~node ~now ~from (u : Update.t) =
  t.stats.updates_in <- t.stats.updates_in + 1;
  let state = get_state t node u.key in
  state.upstream <- Node_id.to_int from;
  if Update.is_expired u ~now then begin
    (* Case 3: the update did not arrive in time — drop it. *)
    t.stats.expired_updates_dropped <-
      t.stats.expired_updates_dropped + 1;
    []
  end
  else begin
    state.distance <- u.level;
    if state.pending_first then begin
      (* Case 1: this answers our pending query.  Apply it, answer the
         waiting local clients, and push the response as a first-time
         update to every interested neighbor. *)
      let (_ : bool) = apply_update state u in
      let trigger = is_trigger_arrival t state u in
      if trigger then record_trigger_arrival state;
      let entries = fresh_entry_list state ~now in
      if u.kind = Update.First_time || entries <> [] then begin
        state.pending_first <- false;
        state.queried_to <- none;
        let response =
          Update.forwarded (Update.first_time ~key:u.key ~entries ~level:u.level)
        in
        (* Waiting neighbors always get their answer; other interested
           neighbors get it proactively only when the policy's
           sender-side bound allows pushing one level deeper. *)
        let proactive_ok =
          match Policy.sender_limit t.config.policy with
          | Some p -> response.Update.level <= p
          | None -> true
        in
        let waiting = state.waiting in
        let targets =
          if proactive_ok then
            Node_id.Set.union waiting
              (Node_id.Set.of_list (Interest.interested state.interest))
          else waiting
        in
        state.waiting <- Node_id.Set.empty;
        let forwards =
          List.map
            (fun neighbor ->
              t.stats.updates_forwarded <- t.stats.updates_forwarded + 1;
              Send_update
                {
                  to_ = neighbor;
                  update = response;
                  answering = Node_id.Set.mem neighbor waiting;
                })
            (Node_id.Set.elements targets)
        in
        let answers =
          match state.waiters with
          | [] -> []
          | posted_at ->
              state.waiters <- [];
              [
                Answer_local
                  { key = u.key; entries; posted_at; hit = false };
              ]
        in
        forwards @ answers
      end
      else
        (* e.g. a Delete arrived while pending: keep waiting for the
           actual response. *)
        []
    end
    else begin
      (* Case 2: pending flag clear. *)
      let downstream_interest = Interest.any state.interest in
      let trigger = is_trigger_arrival t state u in
      if downstream_interest then begin
        state.cut_sent <- false;
        if trigger then record_trigger_arrival state;
        (* Forward only updates that carried news.  A no-news arrival
           has already been seen along another path (duplication, or an
           interest graph that a crash rewired into a cycle); pushing
           it onward again is what turns the cycle into an unbounded
           update storm.  Found by fuzzing — see fuzz seeds 36, 267,
           580, 1827: all-out refresh waves ping-ponged forever across
           crash-rewired CAN neighborhoods. *)
        if apply_update state u then forward_update t state u else []
      end
      else if not trigger then begin
        (* Replica-independent mode, non-trigger replica: apply but do
           not touch the popularity measure or the decision. *)
        let (_ : bool) = apply_update state u in
        []
      end
      else begin
        let queries_since_update = state.queries_since_update in
        record_trigger_arrival state;
        match
          Policy.decide t.config.policy ~distance:state.distance
            ~queries_since_update ~dry_updates:state.dry_updates
        with
        | Policy.Keep ->
            state.cut_sent <- false;
            let (_ : bool) = apply_update state u in
            []
        | Policy.Cut ->
            (* An update arriving while our clear-bit is already in
               flight does not warrant another one. *)
            if state.cut_sent then []
            else begin
              state.cut_sent <- true;
              t.stats.clear_bits_sent <- t.stats.clear_bits_sent + 1;
              [ Send_clear_bit { to_ = from; key = u.key } ]
            end
      end
    end
  end

(* {2 Clear-bits (Section 2.7)} *)

let handle_clear_bit t ~node ~now:_ ~from key =
  t.stats.clear_bits_in <- t.stats.clear_bits_in + 1;
  match find_local t node key with
  | Some ls ->
      Interest.clear ls.interest from;
      []
  | None -> (
      match find_cache t node key with
      | None -> []
      | Some state ->
          Interest.clear state.interest from;
          if
            Policy.uses_clear_bits t.config.policy
            && (not (Interest.any state.interest))
            && (not state.pending_first)
            && not state.cut_sent
          then
            let decision =
              Policy.decide t.config.policy ~distance:state.distance
                ~queries_since_update:state.queries_since_update
                ~dry_updates:state.dry_updates
            in
            match (decision, state.upstream) with
            | Policy.Cut, up when up <> none ->
                state.cut_sent <- true;
                t.stats.clear_bits_sent <- t.stats.clear_bits_sent + 1;
                [ Send_clear_bit { to_ = Node_id.of_int up; key } ]
            | Policy.Cut, _ | Policy.Keep, _ -> []
          else [])

(* {2 Churn (Section 2.9)} *)

let remap_neighbor t ~node ~old_id ~new_id =
  let old_n = Node_id.to_int old_id in
  iter_node t node (fun state ->
      Interest.remap state.interest ~old_id ~new_id;
      if state.upstream = old_n then state.upstream <- Node_id.to_int new_id)

(* Losing the upstream while a query is pending would leave the
   pending flag stuck and suppress re-queries forever; dropping the
   flag lets the next query restart the propagation (the queued local
   waiters are answered when that response arrives). *)
let lose_upstream state =
  state.upstream <- none;
  state.queried_to <- none;
  state.pending_first <- false

let drop_neighbor t ~node neighbor =
  let n = Node_id.to_int neighbor in
  iter_node t node (fun state ->
      Interest.clear state.interest neighbor;
      if state.upstream = n || state.queried_to = n then lose_upstream state)

let retain_neighbors t ~node current =
  let keep = Node_id.Set.of_list current in
  iter_node t node (fun state ->
      List.iter
        (fun member ->
          if not (Node_id.Set.mem member keep) then
            Interest.clear state.interest member)
        (Interest.interested state.interest);
      if
        state.upstream <> none
        && not (Node_id.Set.mem (Node_id.of_int state.upstream) keep)
      then lose_upstream state)

let handover_local t node key =
  let packed = Node_key.pack node key in
  match Pair_table.find_opt t.local packed with
  | None -> []
  | Some ls ->
      Pair_table.remove t.local packed;
      unlink t node ls;
      List.map snd (Replica_id.Map.bindings ls.entries)

let receive_local t node key entries =
  add_local_key t node key;
  let ls = Pair_table.find t.local (Node_key.pack node key) in
  ls.entries <-
    List.fold_left
      (fun m (e : Entry.t) ->
        match Replica_id.Map.find_opt e.replica m with
        | Some existing when Time.(existing.Entry.expiry >= e.expiry) -> m
        | Some _ | None -> Replica_id.Map.add e.replica e m)
      ls.entries entries

(* {2 Introspection} *)

let fresh_entries t ~node ~now key =
  match find_cache t node key with
  | None -> []
  | Some state -> fresh_entry_list state ~now

let pending_first t node key =
  match find_cache t node key with
  | None -> false
  | Some state -> state.pending_first

let interested_neighbors t node key =
  match find_cache t node key with
  | None -> []
  | Some state -> Interest.interested state.interest

let distance_of t node key =
  match find_cache t node key with
  | None -> None
  | Some state ->
      if state.upstream = none && Replica_id.Map.is_empty state.entries then
        None
      else Some state.distance

(* A node's chain holds both kinds of state; a state belongs to the
   table that maps its pair to it. *)
let keys_in table t node =
  let acc = ref [] in
  iter_node t node (fun state ->
      match Pair_table.find_opt table (Node_key.pack node state.key) with
      | Some s when s == state -> acc := state.key :: !acc
      | Some _ | None -> ());
  List.sort Key.compare !acc

let cached_keys t node = keys_in t.cache t node
let owned_keys t node = keys_in t.local t node
