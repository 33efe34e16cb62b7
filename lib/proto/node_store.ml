module Key = Cup_overlay.Key
module Node_id = Cup_overlay.Node_id
module Node_key = Cup_overlay.Node_key
module Index = Node_key.Index
module Time = Cup_dess.Time

type config = { policy : Policy.t; replica_independent_cutoff : bool }

let default_config =
  { policy = Policy.second_chance; replica_independent_cutoff = true }

type source = From_neighbor of Node_id.t | From_local of Time.t

type action =
  | Send_query of { to_ : Node_id.t; key : Key.t }
  | Send_update of { to_ : Node_id.t; update : Update.t; answering : bool }
  | Send_clear_bit of { to_ : Node_id.t; key : Key.t }
  | Answer_local of {
      key : Key.t;
      entries : Entry.t list;
      posted_at : Time.t list;
      hit : bool;
    }

type stats = {
  mutable queries_in : int;
  mutable queries_coalesced : int;
  mutable cache_answers : int;
  mutable updates_in : int;
  mutable updates_forwarded : int;
  mutable clear_bits_sent : int;
  mutable clear_bits_in : int;
  mutable expired_updates_dropped : int;
}

(* State for one (node, key) pair.  A cached (non-local) key uses every
   field: the Section 2.3 bookkeeping.  An owned key's authority state
   uses only the entry arrays, as its slice of the local index
   directory, and [interest], for the neighbors that queried it; its
   other fields keep their initial values, which no churn patch below
   ever matches.

   The entry set is two exact-size parallel arrays: replica ids in
   increasing order and their expiries.  A refresh of a cached replica
   writes its expiry in place, so each state owns its arrays; only the
   shared empty pair is never written. *)
type state = {
  key : Key.t;
  mutable replicas : Replica_id.t array;
  mutable expiries : Time.t array;
  mutable pending_first : bool;
  mutable interest : Interest.t;
  mutable queries_since_update : int;
  mutable dry_updates : int; (* consecutive trigger updates with 0 queries *)
  mutable distance : int; (* hops from the authority, from update levels *)
  mutable trigger : int; (* replica-independent cut-off replica, or [none] *)
  mutable upstream : int; (* node we receive updates from; [none] if unknown *)
  mutable cut_sent : bool; (* clear-bit pushed and not yet re-subscribed *)
  mutable waiters : Time.t list; (* open local client connections *)
  mutable waiting : Interest.t;
      (* neighbors whose query we absorbed and owe a response to; a
         subset of the interested set, except that the churn patches
         below leave it alone, so it can still name a departed
         neighbor *)
  mutable queried_to : int;
      (* where the pending query instance was pushed, or [none]; lets
         churn patching un-stick the pending flag if that hop
         disappears *)
  mutable next : state; (* the owning node's next state; [nil] ends it *)
}

(* Node and replica ids are non-negative, so [none] never matches one. *)
let none = -1

(* Ends every node's chain, stands for an absent state in the indexes,
   and holds the initial value of every field a new state does not set
   itself.  Never mutated. *)
let rec nil =
  {
    key = Key.of_int 0;
    replicas = [||];
    expiries = [||];
    pending_first = false;
    interest = Interest.empty;
    queries_since_update = 0;
    dry_updates = 0;
    distance = 1;
    trigger = none;
    upstream = none;
    cut_sent = false;
    waiters = [];
    waiting = Interest.empty;
    queried_to = none;
    next = nil;
  }

(* Every node's states live in two indexes keyed by the packed
   (node, key) pair, and each node's states are also chained through
   [next] from [heads.(node)], so churn patching and [remove_node] walk
   one node's states without a table per node. *)
type t = {
  config : config;
  stats : stats; (* summed over every node in the store *)
  cache : state Index.t; (* cached-key states *)
  local : state Index.t;
      (* authority states.  A node's cached state and its authority
         state for one key legally coexist across churn, so each kind
         has its own index. *)
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
    (* The indexes start small and grow: most (node, key) pairs never
       hold state, so sizing them by [nodes] only costs set-up time. *)
    cache = Index.create ~absent:nil 1024;
    local = Index.create ~absent:nil 256;
    heads = Array.make nodes nil;
  }

let stats t = t.stats
let live_slots t = Index.length t.cache + Index.length t.local

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

let add_state t index node key =
  let state = { nil with key } in
  let n = Node_id.to_int node in
  let len = Array.length t.heads in
  if n >= len then begin
    let grown = Array.make (Stdlib.max (n + 1) (2 * len)) nil in
    Array.blit t.heads 0 grown 0 len;
    t.heads <- grown
  end;
  state.next <- t.heads.(n);
  t.heads.(n) <- state;
  Index.replace index (Node_key.pack node key) state;
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

let find_cache t node key = Index.find t.cache (Node_key.pack node key)
let find_local t node key = Index.find t.local (Node_key.pack node key)

let get_state t node key =
  let state = find_cache t node key in
  if state != nil then state else add_state t t.cache node key

(* {2 Entry sets}

   The loops below are top-level functions, not closures, so reading
   an entry set allocates nothing. *)

(* Where replica [r] is, or would go, among the increasing [replicas]. *)
let rec position (replicas : Replica_id.t array) r i =
  if i < Array.length replicas && (replicas.(i) :> int) < r then
    position replicas r (i + 1)
  else i

let holds (replicas : Replica_id.t array) i r =
  i < Array.length replicas && (replicas.(i) :> int) = r

(* [a] with [x] inserted before its [i]th element. *)
let inserted a i x =
  let b = Array.make (Array.length a + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (Array.length a - i);
  b

let removed a i =
  Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (Array.length a - i - 1))

let insert_at state i (e : Entry.t) =
  state.replicas <- inserted state.replicas i e.replica;
  state.expiries <- inserted state.expiries i e.expiry

(* Cache [e], replacing any entry for its replica. *)
let set_entry state (e : Entry.t) =
  let r = (e.replica :> int) in
  let i = position state.replicas r 0 in
  if holds state.replicas i r then state.expiries.(i) <- e.expiry
  else insert_at state i e

(* Last-writer-wins by expiry: an entry at or below the cached expiry is
   no news — discarded, so a reordered or duplicated channel can never
   regress the cache to older data.  In-order tree-shaped propagation
   always carries strictly fresher expiries, making the guard a no-op
   there.  Returns whether the set changed. *)
let refresh_entry state (e : Entry.t) =
  let r = (e.replica :> int) in
  let i = position state.replicas r 0 in
  if not (holds state.replicas i r) then begin
    insert_at state i e;
    true
  end
  else if state.expiries.(i) >= e.expiry then false
  else begin
    state.expiries.(i) <- e.expiry;
    true
  end

let remove_entry state (r : Replica_id.t) =
  let i = position state.replicas (r :> int) 0 in
  holds state.replicas i (r :> int)
  && begin
       state.replicas <- removed state.replicas i;
       state.expiries <- removed state.expiries i;
       true
     end

let rec has_fresh (expiries : Time.t array) now i =
  i < Array.length expiries
  && (now < expiries.(i) || has_fresh expiries now (i + 1))

let rec count_fresh (expiries : Time.t array) now i acc =
  if i = Array.length expiries then acc
  else
    count_fresh expiries now (i + 1)
      (if now < expiries.(i) then acc + 1 else acc)

(* Drop the expired entries; allocates only when one has expired. *)
let prune state ~now =
  let expiries = state.expiries in
  let n = Array.length expiries in
  let fresh = count_fresh expiries now 0 0 in
  if fresh = 0 then begin
    state.replicas <- [||];
    state.expiries <- [||]
  end
  else if fresh < n then begin
    let replicas = Array.make fresh state.replicas.(0) in
    let kept = Array.make fresh 0. in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if now < expiries.(i) then begin
        replicas.(!j) <- state.replicas.(i);
        kept.(!j) <- expiries.(i);
        incr j
      end
    done;
    state.replicas <- replicas;
    state.expiries <- kept
  end

let rec entries_from (replicas : Replica_id.t array) expiries i acc =
  if i < 0 then acc
  else
    entries_from replicas expiries (i - 1)
      ({ Entry.replica = replicas.(i); expiry = expiries.(i) } :: acc)

(* The cached entries in increasing replica order, for actions and
   introspection. *)
let entry_list state =
  entries_from state.replicas state.expiries
    (Array.length state.replicas - 1)
    []

let fresh_entry_list state ~now =
  prune state ~now;
  entry_list state

let nodes t =
  let acc = ref [] in
  for n = Array.length t.heads - 1 downto 0 do
    if t.heads.(n) != nil then acc := Node_id.of_int n :: !acc
  done;
  !acc

(* Every state of a departed node goes.  A node can hold a cached and
   an authority state for the same key, both on its chain, so each
   state's pair is dropped from both indexes. *)
let remove_node t node =
  iter_node t node (fun state ->
      let packed = Node_key.pack node state.key in
      Index.remove t.cache packed;
      Index.remove t.local packed);
  let n = Node_id.to_int node in
  if n < Array.length t.heads then t.heads.(n) <- nil

(* Send [update] to every id in [waiting] or [interest], in increasing
   order, consed onto [acc]: [answering] exactly for the [waiting] ids.
   Both arrays are walked down from [i] and [j], so the list comes out
   in order without a reversal. *)
let rec sends stats update (waiting : Node_id.t array) i
    (interest : Node_id.t array) j acc =
  if i < 0 && j < 0 then acc
  else begin
    stats.updates_forwarded <- stats.updates_forwarded + 1;
    let w = if i < 0 then none else (waiting.(i) :> int) in
    let n = if j < 0 then none else (interest.(j) :> int) in
    if w >= n then
      sends stats update waiting (i - 1) interest
        (if w = n then j - 1 else j)
        (Send_update { to_ = waiting.(i); update; answering = true } :: acc)
    else
      sends stats update waiting i interest (j - 1)
        (Send_update { to_ = interest.(j); update; answering = false } :: acc)
  end

let send_all t update ~waiting ~interest acc =
  let waiting = (waiting : Interest.t :> Node_id.t array)
  and interest = (interest : Interest.t :> Node_id.t array) in
  sends t.stats update waiting (Array.length waiting - 1) interest
    (Array.length interest - 1) acc

(* {2 Authority side} *)

let add_local_key t node key =
  if find_local t node key == nil then ignore (add_state t t.local node key)

let owns t node key = find_local t node key != nil
let local_directory t node key = entry_list (find_local t node key)

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
  else send_all t update ~waiting:Interest.empty ~interest:ls.interest []

let local_exn t node key op =
  let ls = find_local t node key in
  if ls == nil then invalid_arg ("Node_store." ^ op ^ ": key not owned") else ls

let replica_birth t ~node ~now:_ ~key entry =
  let ls = local_exn t node key "replica_birth" in
  set_entry ls entry;
  originate t ls (Update.append ~key ~entry ~level:1)

let replica_refresh t ~node ~now:_ ~key entry =
  let ls = local_exn t node key "replica_refresh" in
  set_entry ls entry;
  originate t ls (Update.refresh ~key ~entry ~level:1)

let replica_refresh_batch t ~node ~now:_ ~key entries =
  let ls = local_exn t node key "replica_refresh_batch" in
  match entries with
  | [] -> []
  | entries ->
      List.iter (set_entry ls) entries;
      let update =
        { (Update.refresh ~key ~entry:(List.hd entries) ~level:1) with
          Update.entries }
      in
      originate t ls update

let replica_death t ~node ~now:_ ~key (replica : Replica_id.t) =
  let ls = local_exn t node key "replica_death" in
  let i = position ls.replicas (replica :> int) 0 in
  if not (holds ls.replicas i (replica :> int)) then []
  else begin
    let entry = Entry.make ~replica ~expiry:ls.expiries.(i) in
    ignore (remove_entry ls replica : bool);
    originate t ls (Update.delete ~key ~entry ~level:1)
  end

(* {2 Queries (Section 2.5)} *)

let answer_as_authority t ls ~now key source =
  let entries = fresh_entry_list ls ~now in
  match source with
  | From_local posted ->
      [ Answer_local { key; entries; posted_at = [ posted ]; hit = true } ]
  | From_neighbor from ->
      ls.interest <- Interest.add ls.interest from;
      let update = Update.first_time ~key ~entries ~level:1 in
      t.stats.updates_forwarded <- t.stats.updates_forwarded + 1;
      [ Send_update { to_ = from; update; answering = true } ]

(* Where a query for a key this node does not own pushes its query
   instance, given the key's [cached] state ([nil] if none): [none]
   when the node answers it from fresh entries or coalesces it into a
   pending instance, else [route]'s next hop, or [unroutable] when
   [route] has none.  Decided before the query changes any state, so an
   unroutable query leaves none behind. *)
let unroutable = -2

let push_target t ~node ~now ~route key cached =
  let pushes =
    (not (has_fresh cached.expiries now 0))
    && not (cached.pending_first && Policy.coalesces_queries t.config.policy)
  in
  if not pushes then none
  else
    match route node key with
    | Cup_overlay.Route.Forward hop -> Node_id.to_int hop
    | Cup_overlay.Route.Owner | Cup_overlay.Route.Stuck _ -> unroutable

let handle_query t ~node ~now ~owner ~route source key =
  let ls = find_local t node key in
  if ls != nil then begin
    t.stats.queries_in <- t.stats.queries_in + 1;
    t.stats.cache_answers <- t.stats.cache_answers + 1;
    answer_as_authority t ls ~now key source
  end
  else if owner then begin
    (* Our zone contains the key but we have no directory for it:
       become its (empty) authority. *)
    t.stats.queries_in <- t.stats.queries_in + 1;
    answer_as_authority t (add_state t t.local node key) ~now key source
  end
  else
    let cached = find_cache t node key in
    let target = push_target t ~node ~now ~route key cached in
    if target = unroutable then []
    else begin
      t.stats.queries_in <- t.stats.queries_in + 1;
      let state =
        if cached != nil then cached else add_state t t.cache node key
      in
      prune state ~now;
      (* Bookkeeping common to all three cases. *)
      state.queries_since_update <- state.queries_since_update + 1;
      (match source with
      | From_neighbor from ->
          state.interest <- Interest.add state.interest from
      | From_local _ -> ());
      if Array.length state.replicas > 0 then begin
        (* Case 1: fresh entries cached — answer immediately. *)
        let entries = entry_list state in
        t.stats.cache_answers <- t.stats.cache_answers + 1;
        match source with
        | From_local posted ->
            [
              Answer_local { key; entries; posted_at = [ posted ]; hit = true };
            ]
        | From_neighbor from ->
            let update =
              Update.first_time ~key ~entries ~level:(state.distance + 1)
            in
            t.stats.updates_forwarded <- t.stats.updates_forwarded + 1;
            [ Send_update { to_ = from; update; answering = true } ]
      end
      else begin
        (* Cases 2 and 3: no usable entries.  Queue local clients; push
           one query instance unless one is already pending. *)
        (match source with
        | From_local posted -> state.waiters <- posted :: state.waiters
        | From_neighbor from ->
            state.waiting <- Interest.add state.waiting from);
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
    end

(* {2 Updates (Section 2.6)} *)

(* Whether a first-time update carrying [entries] would leave the cached
   set as it is: the same replicas, each with the expiry of its last
   occurrence in [entries] (the last writer wins, as when the set is
   built).  [distinct] counts the replicas checked so far. *)
let rec occurs (r : Replica_id.t) = function
  | [] -> false
  | (e : Entry.t) :: rest -> (e.replica :> int) = (r :> int) || occurs r rest

let rec same_entries state entries distinct =
  match entries with
  | [] -> distinct = Array.length state.replicas
  | (e : Entry.t) :: rest ->
      let r = (e.replica :> int) in
      let i = position state.replicas r 0 in
      holds state.replicas i r
      &&
      if occurs e.replica rest then same_entries state rest distinct
      else
        state.expiries.(i) = e.expiry
        && same_entries state rest (distinct + 1)

let rec refresh_all state entries changed =
  match entries with
  | [] -> changed
  | e :: rest -> refresh_all state rest (refresh_entry state e || changed)

let rec delete_all state entries changed =
  match entries with
  | [] -> changed
  | (e : Entry.t) :: rest ->
      let present = remove_entry state e.replica in
      (* A deleted trigger replica cannot trigger decisions any more:
         adopt another cached replica (or none). *)
      if state.trigger = (e.replica :> int) then
        state.trigger <-
          (if Array.length state.replicas > 0 then (state.replicas.(0) :> int)
           else none);
      delete_all state rest (changed || present)

(* Apply [u] to the key's cached entry set.  Returns whether the cache
   actually changed: a no-news arrival — a duplicated delivery, or an
   update that travelled a (fault-rewired) interest cycle back around —
   must not be forwarded again, or the cycle amplifies it into an
   update storm. *)
let apply_update state (u : Update.t) =
  match u.kind with
  | First_time ->
      if same_entries state u.entries 0 then false
      else begin
        state.replicas <- [||];
        state.expiries <- [||];
        List.iter (set_entry state) u.entries;
        true
      end
  | Refresh | Append -> refresh_all state u.entries false
  | Delete -> delete_all state u.entries false

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
  else send_all t next ~waiting:Interest.empty ~interest:state.interest []

(* Whether this arrival triggers the cut-off evaluation (and the
   popularity reset).  Always in naive mode; only for the trigger
   replica (adopting one if none) in replica-independent mode.
   First-time updates always count: they are query responses, not
   per-replica refreshes. *)
let is_trigger_arrival t state (u : Update.t) =
  if not t.config.replica_independent_cutoff then true
  else
    match (u.kind, u.entries) with
    | First_time, _ | _, [] -> true
    | (Delete | Refresh | Append), e :: _ ->
        let r = (e.Entry.replica :> int) in
        if state.trigger = none then begin
          state.trigger <- r;
          true
        end
        else state.trigger = r

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
      prune state ~now;
      if u.kind = Update.First_time || Array.length state.replicas > 0
      then begin
        state.pending_first <- false;
        state.queried_to <- none;
        let entries = entry_list state in
        let response =
          Update.first_time ~key:u.key ~entries ~level:(u.level + 1)
        in
        (* Waiting neighbors always get their answer; other interested
           neighbors get it proactively only when the policy's
           sender-side bound allows pushing one level deeper. *)
        let proactive_ok =
          match Policy.sender_limit t.config.policy with
          | Some p -> response.Update.level <= p
          | None -> true
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
        let waiting = state.waiting in
        state.waiting <- Interest.empty;
        send_all t response ~waiting
          ~interest:(if proactive_ok then state.interest else Interest.empty)
          answers
      end
      else
        (* e.g. a Delete arrived while pending: keep waiting for the
           actual response. *)
        []
    end
    else begin
      (* Case 2: pending flag clear. *)
      let downstream_interest = not (Interest.is_empty state.interest) in
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
  let ls = find_local t node key in
  if ls != nil then begin
    ls.interest <- Interest.remove ls.interest from;
    []
  end
  else
    let state = find_cache t node key in
    if state == nil then []
    else begin
      state.interest <- Interest.remove state.interest from;
      if
        Policy.uses_clear_bits t.config.policy
        && Interest.is_empty state.interest
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
      else []
    end

(* {2 Churn (Section 2.9)} *)

let remap_neighbor t ~node ~old_id ~new_id =
  let old_n = Node_id.to_int old_id in
  iter_node t node (fun state ->
      state.interest <- Interest.remap state.interest ~old_id ~new_id;
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
      state.interest <- Interest.remove state.interest neighbor;
      if state.upstream = n || state.queried_to = n then lose_upstream state)

let retain_neighbors t ~node current =
  let keep = Node_id.Set.of_list current in
  let kept member = Node_id.Set.mem member keep in
  iter_node t node (fun state ->
      state.interest <- Interest.filter kept state.interest;
      if state.upstream <> none && not (kept (Node_id.of_int state.upstream))
      then lose_upstream state)

let handover_local t node key =
  let ls = find_local t node key in
  if ls == nil then []
  else begin
    Index.remove t.local (Node_key.pack node key);
    unlink t node ls;
    entry_list ls
  end

let receive_local t node key entries =
  add_local_key t node key;
  let ls = find_local t node key in
  List.iter (fun e -> ignore (refresh_entry ls e : bool)) entries

(* {2 Introspection} *)

let fresh_entries t ~node ~now key =
  let state = find_cache t node key in
  if state == nil then [] else fresh_entry_list state ~now

let pending_first t node key = (find_cache t node key).pending_first

let interested_neighbors t node key =
  Interest.to_list (find_cache t node key).interest

let distance_of t node key =
  let state = find_cache t node key in
  if
    state == nil
    || (state.upstream = none && Array.length state.replicas = 0)
  then None
  else Some state.distance

(* A node's chain holds both kinds of state; a state belongs to the
   index that maps its pair to it. *)
let keys_in index t node =
  let acc = ref [] in
  iter_node t node (fun state ->
      if Index.find index (Node_key.pack node state.key) == state then
        acc := state.key :: !acc);
  List.sort Key.compare !acc

let cached_keys t node = keys_in t.cache t node
let owned_keys t node = keys_in t.local t node
