module Key = Cup_overlay.Key
module Node_id = Cup_overlay.Node_id
module Node_key = Cup_overlay.Node_key
module Time = Cup_dess.Time

(* One pool of (node, key) slots holds every node's protocol state.
   Scalar per-slot fields live in parallel arrays; set-valued fields
   (interest, waiting) are sorted int arrays ({!Intset}); directory /
   cache entries are per-slot (replica, expiry) parallel arrays kept
   sorted by replica.  [s_next] is intrusive: the freelist chain while
   a slot is free, the owning node's slot chain while it is live — the
   tigerbeetle iops/fifo idiom, one int per slot either way.

   A slot is either a cached-key state (Node.key_state) or an owned-key
   authority state (Node.local_state), told apart by [s_local]; both
   kinds share the pool and the per-node chain so churn patching walks
   one list.  Only authority slots are ever freed (handover); cache
   states, as in {!Node}, live for the run.

   Byte-identity contract: every handler returns the exact action list
   the map-backed {!Node} returns for the same history.  The orders
   that matter — [Node_id.Set.elements] (ascending), [Replica_id.Map.
   bindings] (ascending), [Set.union] (sorted merge), [min_binding_opt]
   (smallest) — are reproduced by the sorted-array representations. *)

type t = {
  config : Node.config;
  stats : Node.stats; (* aggregated over all nodes *)
  mutable cap : int;
  mutable hwm : int; (* slots ever initialized; next fresh slot *)
  mutable free_head : int; (* intrusive freelist head, -1 = empty *)
  mutable s_next : int array;
  mutable s_node : int array;
  mutable s_key : int array;
  mutable s_local : Bytes.t; (* 1 = authority (local_state) slot *)
  mutable s_pending : Bytes.t;
  mutable s_cut_sent : Bytes.t;
  mutable s_qsu : int array; (* queries_since_update *)
  mutable s_dry : int array;
  mutable s_dist : int array;
  mutable s_trigger : int array; (* replica id, -1 = None *)
  mutable s_upstream : int array; (* node id, -1 = None *)
  mutable s_queried_to : int array; (* node id, -1 = None *)
  mutable s_interest : Intset.t array;
  mutable s_waiting : Intset.t array;
  mutable s_waiters : Time.t list array;
  mutable e_rep : int array array; (* entries: replica ids, sorted *)
  mutable e_exp : float array array; (* entries: expiry seconds *)
  mutable e_len : int array;
  cache_index : int Node_key.Table.t; (* (node, key) -> cached-key slot *)
  local_index : int Node_key.Table.t;
      (* (node, key) -> authority slot.  A node's cached state and its
         authority state for one key legally coexist across churn, so
         each kind has its own index. *)
  head : (int, int) Hashtbl.t; (* node -> first slot of its chain *)
  known : (int, unit) Hashtbl.t; (* registered node ids *)
  unset : Intset.t; (* placeholder marking never-initialized set cells *)
}

let create ?(slots_hint = 1024) config =
  let cap = Stdlib.max 16 slots_hint in
  let unset = Intset.create () in
  {
    config;
    stats =
      {
        Node.queries_in = 0;
        queries_coalesced = 0;
        cache_answers = 0;
        updates_in = 0;
        updates_forwarded = 0;
        clear_bits_sent = 0;
        clear_bits_in = 0;
        expired_updates_dropped = 0;
      };
    cap;
    hwm = 0;
    free_head = -1;
    s_next = Array.make cap (-1);
    s_node = Array.make cap 0;
    s_key = Array.make cap 0;
    s_local = Bytes.make cap '\000';
    s_pending = Bytes.make cap '\000';
    s_cut_sent = Bytes.make cap '\000';
    s_qsu = Array.make cap 0;
    s_dry = Array.make cap 0;
    s_dist = Array.make cap 1;
    s_trigger = Array.make cap (-1);
    s_upstream = Array.make cap (-1);
    s_queried_to = Array.make cap (-1);
    s_interest = Array.make cap unset;
    s_waiting = Array.make cap unset;
    s_waiters = Array.make cap [];
    e_rep = Array.make cap [||];
    e_exp = Array.make cap [||];
    e_len = Array.make cap 0;
    cache_index = Node_key.Table.create (2 * cap);
    local_index = Node_key.Table.create 256;
    head = Hashtbl.create 256;
    known = Hashtbl.create 256;
    unset;
  }

let config t = t.config
let stats t = t.stats
let register t id = Hashtbl.replace t.known (Node_id.to_int id) ()
let mem t id = Hashtbl.mem t.known (Node_id.to_int id)

let live_slots t =
  let free = ref 0 in
  let s = ref t.free_head in
  while !s >= 0 do
    incr free;
    s := t.s_next.(!s)
  done;
  t.hwm - !free

let grow t =
  let ncap = 2 * t.cap in
  let garr a init =
    let b = Array.make ncap init in
    Array.blit a 0 b 0 t.cap;
    b
  in
  let gbytes a =
    let b = Bytes.make ncap '\000' in
    Bytes.blit a 0 b 0 t.cap;
    b
  in
  t.s_next <- garr t.s_next (-1);
  t.s_node <- garr t.s_node 0;
  t.s_key <- garr t.s_key 0;
  t.s_local <- gbytes t.s_local;
  t.s_pending <- gbytes t.s_pending;
  t.s_cut_sent <- gbytes t.s_cut_sent;
  t.s_qsu <- garr t.s_qsu 0;
  t.s_dry <- garr t.s_dry 0;
  t.s_dist <- garr t.s_dist 1;
  t.s_trigger <- garr t.s_trigger (-1);
  t.s_upstream <- garr t.s_upstream (-1);
  t.s_queried_to <- garr t.s_queried_to (-1);
  t.s_interest <- garr t.s_interest t.unset;
  t.s_waiting <- garr t.s_waiting t.unset;
  t.s_waiters <- garr t.s_waiters [];
  t.e_rep <- garr t.e_rep [||];
  t.e_exp <- garr t.e_exp [||];
  t.e_len <- garr t.e_len 0;
  t.cap <- ncap

let fresh_set t arr slot =
  if arr.(slot) == t.unset then arr.(slot) <- Intset.create ()
  else Intset.clear arr.(slot)

let alloc_slot t ~packed ~local =
  let slot =
    match t.free_head with
    | -1 ->
        if t.hwm = t.cap then grow t;
        let s = t.hwm in
        t.hwm <- t.hwm + 1;
        s
    | s ->
        t.free_head <- t.s_next.(s);
        s
  in
  let nid = Node_id.to_int (Node_key.node packed) in
  t.s_node.(slot) <- nid;
  t.s_key.(slot) <- Key.to_int (Node_key.key packed);
  Bytes.set t.s_local slot (if local then '\001' else '\000');
  Bytes.set t.s_pending slot '\000';
  Bytes.set t.s_cut_sent slot '\000';
  t.s_qsu.(slot) <- 0;
  t.s_dry.(slot) <- 0;
  t.s_dist.(slot) <- 1;
  t.s_trigger.(slot) <- -1;
  t.s_upstream.(slot) <- -1;
  t.s_queried_to.(slot) <- -1;
  fresh_set t t.s_interest slot;
  fresh_set t t.s_waiting slot;
  t.s_waiters.(slot) <- [];
  t.e_len.(slot) <- 0;
  (* Link at the head of the owning node's chain. *)
  t.s_next.(slot) <-
    (match Hashtbl.find_opt t.head nid with Some h -> h | None -> -1);
  Hashtbl.replace t.head nid slot;
  Node_key.Table.replace
    (if local then t.local_index else t.cache_index)
    packed slot;
  slot

let unlink_slot t slot =
  let nid = t.s_node.(slot) in
  (match Hashtbl.find_opt t.head nid with
  | Some h when h = slot -> (
      match t.s_next.(slot) with
      | -1 -> Hashtbl.remove t.head nid
      | nxt -> Hashtbl.replace t.head nid nxt)
  | Some h ->
      let prev = ref h in
      while t.s_next.(!prev) <> slot do
        prev := t.s_next.(!prev)
      done;
      t.s_next.(!prev) <- t.s_next.(slot)
  | None -> ())

(* Only authority slots are ever freed. *)
let free_slot t ~packed slot =
  unlink_slot t slot;
  Node_key.Table.remove t.local_index packed;
  t.s_next.(slot) <- t.free_head;
  t.free_head <- slot

let find_cache t node key =
  Node_key.Table.find_opt t.cache_index (Node_key.pack node key)

let find_local t node key =
  Node_key.Table.find_opt t.local_index (Node_key.pack node key)

(* [Node.get_state]: look up the cached-key slot, creating it empty. *)
let cache_slot t node key =
  let packed = Node_key.pack node key in
  match Node_key.Table.find_opt t.cache_index packed with
  | Some s -> s
  | None -> alloc_slot t ~packed ~local:false

(* {2 Per-slot entry sets: sorted (replica, expiry) parallel arrays} *)

(* Index of [r] in the slot's replica array, or [-(insertion) - 1]. *)
let ent_search t slot r =
  let rep = t.e_rep.(slot) in
  let lo = ref 0 and hi = ref t.e_len.(slot) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if rep.(mid) < r then lo := mid + 1 else hi := mid
  done;
  if !lo < t.e_len.(slot) && rep.(!lo) = r then !lo else -(!lo) - 1

(* [Replica_id.Map.add]: replace on the same replica, insert sorted
   otherwise. *)
let ent_upsert t slot r exp =
  let i = ent_search t slot r in
  if i >= 0 then t.e_exp.(slot).(i) <- exp
  else begin
    let pos = -i - 1 in
    let len = t.e_len.(slot) in
    if len = Array.length t.e_rep.(slot) then begin
      let ncap = Stdlib.max 4 (2 * len) in
      let nrep = Array.make ncap 0 and nexp = Array.make ncap 0. in
      Array.blit t.e_rep.(slot) 0 nrep 0 len;
      Array.blit t.e_exp.(slot) 0 nexp 0 len;
      t.e_rep.(slot) <- nrep;
      t.e_exp.(slot) <- nexp
    end;
    let rep = t.e_rep.(slot) and expa = t.e_exp.(slot) in
    Array.blit rep pos rep (pos + 1) (len - pos);
    Array.blit expa pos expa (pos + 1) (len - pos);
    rep.(pos) <- r;
    expa.(pos) <- exp;
    t.e_len.(slot) <- len + 1
  end

let ent_remove t slot r =
  let i = ent_search t slot r in
  if i >= 0 then begin
    let len = t.e_len.(slot) in
    let rep = t.e_rep.(slot) and expa = t.e_exp.(slot) in
    Array.blit rep (i + 1) rep i (len - i - 1);
    Array.blit expa (i + 1) expa i (len - i - 1);
    t.e_len.(slot) <- len - 1
  end

(* [prune_expired]: drop entries with [expiry <= now], keeping order. *)
let ent_prune t slot ~now_s =
  let len = t.e_len.(slot) in
  let rep = t.e_rep.(slot) and expa = t.e_exp.(slot) in
  let w = ref 0 in
  for i = 0 to len - 1 do
    if now_s < expa.(i) then begin
      if !w < i then begin
        rep.(!w) <- rep.(i);
        expa.(!w) <- expa.(i)
      end;
      incr w
    end
  done;
  t.e_len.(slot) <- !w

(* Entries as [Entry.t list] in replica order — what
   [Replica_id.Map.bindings] yields. *)
let ent_list t slot =
  let rep = t.e_rep.(slot) and expa = t.e_exp.(slot) in
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        (Entry.make
           ~replica:(Replica_id.of_int rep.(i))
           ~expiry:(Time.of_seconds expa.(i))
         :: acc)
  in
  go (t.e_len.(slot) - 1) []

(* [fresh_entry_list]: prune in place, then list what is left. *)
let fresh_ent_list t slot ~now =
  ent_prune t slot ~now_s:(Time.to_seconds now);
  ent_list t slot

(* {2 Authority side} *)

let add_local_key t node key =
  let packed = Node_key.pack node key in
  if not (Node_key.Table.mem t.local_index packed) then
    ignore (alloc_slot t ~packed ~local:true)

let owns t node key = find_local t node key <> None

let local_directory t node key =
  match find_local t node key with
  | Some slot -> ent_list t slot
  | None -> []

let originate t slot (update : Update.t) =
  let allowed =
    match Policy.sender_limit t.config.Node.policy with
    | Some p -> 1 <= p
    | None -> true
  in
  if not allowed then []
  else
    List.map
      (fun neighbor ->
        t.stats.Node.updates_forwarded <- t.stats.Node.updates_forwarded + 1;
        Node.Send_update
          { to_ = Node_id.of_int neighbor; update; answering = false })
      (Intset.to_list t.s_interest.(slot))

let local_slot_exn t node key op =
  match find_local t node key with
  | Some slot -> slot
  | None -> invalid_arg ("Node_store." ^ op ^ ": key not owned")

let replica_birth t ~node ~now:_ ~key (entry : Entry.t) =
  let slot = local_slot_exn t node key "replica_birth" in
  ent_upsert t slot
    (Replica_id.to_int entry.Entry.replica)
    (Time.to_seconds entry.Entry.expiry);
  originate t slot (Update.append ~key ~entry ~level:1)

let replica_refresh t ~node ~now:_ ~key (entry : Entry.t) =
  let slot = local_slot_exn t node key "replica_refresh" in
  ent_upsert t slot
    (Replica_id.to_int entry.Entry.replica)
    (Time.to_seconds entry.Entry.expiry);
  originate t slot (Update.refresh ~key ~entry ~level:1)

let replica_refresh_batch t ~node ~now:_ ~key entries =
  let slot = local_slot_exn t node key "replica_refresh_batch" in
  match entries with
  | [] -> []
  | entries ->
      List.iter
        (fun (e : Entry.t) ->
          ent_upsert t slot
            (Replica_id.to_int e.replica)
            (Time.to_seconds e.expiry))
        entries;
      let update =
        { (Update.refresh ~key ~entry:(List.hd entries) ~level:1) with
          Update.entries }
      in
      originate t slot update

let replica_death t ~node ~now:_ ~key replica =
  let slot = local_slot_exn t node key "replica_death" in
  let r = Replica_id.to_int replica in
  match ent_search t slot r with
  | i when i < 0 -> []
  | i ->
      let entry =
        Entry.make ~replica ~expiry:(Time.of_seconds t.e_exp.(slot).(i))
      in
      ent_remove t slot r;
      originate t slot (Update.delete ~key ~entry ~level:1)

(* {2 Queries (Section 2.5)} *)

let answer_as_authority t slot ~now key source =
  ent_prune t slot ~now_s:(Time.to_seconds now);
  let entries = ent_list t slot in
  match source with
  | Node.From_local posted ->
      [ Node.Answer_local { key; entries; posted_at = [ posted ]; hit = true } ]
  | Node.From_neighbor from ->
      Intset.add t.s_interest.(slot) (Node_id.to_int from);
      let update = Update.first_time ~key ~entries ~level:1 in
      t.stats.Node.updates_forwarded <- t.stats.Node.updates_forwarded + 1;
      [ Node.Send_update { to_ = from; update; answering = true } ]

let handle_query t ~node ~now ~next_hop source key =
  t.stats.Node.queries_in <- t.stats.Node.queries_in + 1;
  match find_local t node key with
  | Some slot ->
      t.stats.Node.cache_answers <- t.stats.Node.cache_answers + 1;
      answer_as_authority t slot ~now key source
  | None when next_hop = None ->
      add_local_key t node key;
      let slot = Option.get (find_local t node key) in
      answer_as_authority t slot ~now key source
  | None -> (
      let slot = cache_slot t node key in
      t.s_qsu.(slot) <- t.s_qsu.(slot) + 1;
      (match source with
      | Node.From_neighbor from ->
          Intset.add t.s_interest.(slot) (Node_id.to_int from)
      | Node.From_local _ -> ());
      match fresh_ent_list t slot ~now with
      | _ :: _ as entries -> (
          t.stats.Node.cache_answers <- t.stats.Node.cache_answers + 1;
          match source with
          | Node.From_local posted ->
              [
                Node.Answer_local
                  { key; entries; posted_at = [ posted ]; hit = true };
              ]
          | Node.From_neighbor from ->
              let update =
                Update.first_time ~key ~entries ~level:(t.s_dist.(slot) + 1)
              in
              t.stats.Node.updates_forwarded <-
                t.stats.Node.updates_forwarded + 1;
              [ Node.Send_update { to_ = from; update; answering = true } ])
      | [] ->
          (match source with
          | Node.From_local posted ->
              t.s_waiters.(slot) <- posted :: t.s_waiters.(slot)
          | Node.From_neighbor from ->
              Intset.add t.s_waiting.(slot) (Node_id.to_int from));
          if
            Bytes.get t.s_pending slot = '\001'
            && Policy.coalesces_queries t.config.Node.policy
          then begin
            t.stats.Node.queries_coalesced <-
              t.stats.Node.queries_coalesced + 1;
            []
          end
          else begin
            Bytes.set t.s_pending slot '\001';
            Bytes.set t.s_cut_sent slot '\000';
            match next_hop with
            | Some hop ->
                t.s_queried_to.(slot) <- Node_id.to_int hop;
                [ Node.Send_query { to_ = hop; key } ]
            | None -> assert false (* handled above *)
          end)

(* {2 Updates (Section 2.6)} *)

(* Mirror of {!Node.apply_update}, including its changed-result
   contract: returns whether the slot's entry set actually changed, so
   the caller can refuse to forward no-news arrivals (the update-storm
   guard). *)
let apply_update t slot (u : Update.t) =
  match u.kind with
  | Update.First_time ->
      let old_len = t.e_len.(slot) in
      let old_rep = Array.sub t.e_rep.(slot) 0 old_len in
      let old_exp = Array.sub t.e_exp.(slot) 0 old_len in
      t.e_len.(slot) <- 0;
      List.iter
        (fun (e : Entry.t) ->
          ent_upsert t slot
            (Replica_id.to_int e.replica)
            (Time.to_seconds e.expiry))
        u.entries;
      let len = t.e_len.(slot) in
      len <> old_len
      ||
      let rep = t.e_rep.(slot) and exp = t.e_exp.(slot) in
      let changed = ref false in
      for i = 0 to len - 1 do
        if rep.(i) <> old_rep.(i) || exp.(i) <> old_exp.(i) then changed := true
      done;
      !changed
  | Update.Refresh | Update.Append ->
      (* Last-writer-wins guard: keep the cached expiry when it is at
         least as fresh — an equal-or-staler entry is no news. *)
      List.fold_left
        (fun changed (e : Entry.t) ->
          let r = Replica_id.to_int e.replica in
          let exp = Time.to_seconds e.expiry in
          match ent_search t slot r with
          | i when i >= 0 ->
              if t.e_exp.(slot).(i) < exp then begin
                t.e_exp.(slot).(i) <- exp;
                true
              end
              else changed
          | _ ->
              ent_upsert t slot r exp;
              true)
        false u.entries
  | Update.Delete ->
      List.fold_left
        (fun changed (e : Entry.t) ->
          let r = Replica_id.to_int e.replica in
          let present = ent_search t slot r >= 0 in
          ent_remove t slot r;
          if t.s_trigger.(slot) = r then
            t.s_trigger.(slot) <-
              (if t.e_len.(slot) > 0 then t.e_rep.(slot).(0) else -1);
          changed || present)
        false u.entries

let forward_update t slot (u : Update.t) =
  let next = Update.forwarded u in
  let allowed =
    match Policy.sender_limit t.config.Node.policy with
    | Some p -> next.Update.level <= p
    | None -> true
  in
  if not allowed then []
  else
    List.map
      (fun neighbor ->
        t.stats.Node.updates_forwarded <- t.stats.Node.updates_forwarded + 1;
        Node.Send_update
          { to_ = Node_id.of_int neighbor; update = next; answering = false })
      (Intset.to_list t.s_interest.(slot))

let is_trigger_arrival t slot (u : Update.t) =
  if not t.config.Node.replica_independent_cutoff then true
  else
    match Update.subject u with
    | None -> true
    | Some replica ->
        let r = Replica_id.to_int replica in
        if t.s_trigger.(slot) = -1 then begin
          t.s_trigger.(slot) <- r;
          true
        end
        else t.s_trigger.(slot) = r

let record_trigger_arrival t slot =
  if t.s_qsu.(slot) = 0 then t.s_dry.(slot) <- t.s_dry.(slot) + 1
  else t.s_dry.(slot) <- 0;
  t.s_qsu.(slot) <- 0

(* The pending-answer fan-out: waiting ∪ interested in ascending node
   order (what [Node_id.Set.elements (Set.union ...)] yields), each
   tagged with waiting-membership for the [answering] flag.  Two-pointer
   merge over the two sorted arrays. *)
let merge_targets waiting interest ~proactive_ok =
  let nw = Intset.cardinal waiting in
  if not proactive_ok then
    List.init nw (fun i -> (Intset.get waiting i, true))
  else begin
    let ni = Intset.cardinal interest in
    let rec go i j acc =
      if i >= nw && j >= ni then List.rev acc
      else if j >= ni || (i < nw && Intset.get waiting i < Intset.get interest j)
      then go (i + 1) j ((Intset.get waiting i, true) :: acc)
      else if i >= nw || Intset.get interest j < Intset.get waiting i then
        go i (j + 1) ((Intset.get interest j, false) :: acc)
      else go (i + 1) (j + 1) ((Intset.get waiting i, true) :: acc)
    in
    go 0 0 []
  end

let handle_update t ~node ~now ~from (u : Update.t) =
  t.stats.Node.updates_in <- t.stats.Node.updates_in + 1;
  let slot = cache_slot t node u.key in
  t.s_upstream.(slot) <- Node_id.to_int from;
  if Update.is_expired u ~now then begin
    t.stats.Node.expired_updates_dropped <-
      t.stats.Node.expired_updates_dropped + 1;
    []
  end
  else begin
    t.s_dist.(slot) <- u.level;
    if Bytes.get t.s_pending slot = '\001' then begin
      let (_ : bool) = apply_update t slot u in
      let trigger = is_trigger_arrival t slot u in
      if trigger then record_trigger_arrival t slot;
      let entries = fresh_ent_list t slot ~now in
      if u.kind = Update.First_time || entries <> [] then begin
        Bytes.set t.s_pending slot '\000';
        t.s_queried_to.(slot) <- -1;
        let response =
          Update.forwarded
            (Update.first_time ~key:u.key ~entries ~level:u.level)
        in
        let proactive_ok =
          match Policy.sender_limit t.config.Node.policy with
          | Some p -> response.Update.level <= p
          | None -> true
        in
        let targets =
          merge_targets t.s_waiting.(slot) t.s_interest.(slot) ~proactive_ok
        in
        Intset.clear t.s_waiting.(slot);
        let forwards =
          List.map
            (fun (neighbor, answering) ->
              t.stats.Node.updates_forwarded <-
                t.stats.Node.updates_forwarded + 1;
              Node.Send_update
                { to_ = Node_id.of_int neighbor; update = response; answering })
            targets
        in
        let answers =
          match t.s_waiters.(slot) with
          | [] -> []
          | posted_at ->
              t.s_waiters.(slot) <- [];
              [
                Node.Answer_local
                  { key = u.key; entries; posted_at; hit = false };
              ]
        in
        forwards @ answers
      end
      else []
    end
    else begin
      let downstream_interest = not (Intset.is_empty t.s_interest.(slot)) in
      let trigger = is_trigger_arrival t slot u in
      if downstream_interest then begin
        Bytes.set t.s_cut_sent slot '\000';
        if trigger then record_trigger_arrival t slot;
        (* Update-storm guard, as in {!Node.handle_update}: no-news
           arrivals are never pushed onward. *)
        if apply_update t slot u then forward_update t slot u else []
      end
      else if not trigger then begin
        let (_ : bool) = apply_update t slot u in
        []
      end
      else begin
        let queries_since_update = t.s_qsu.(slot) in
        record_trigger_arrival t slot;
        match
          Policy.decide t.config.Node.policy ~distance:t.s_dist.(slot)
            ~queries_since_update ~dry_updates:t.s_dry.(slot)
        with
        | Policy.Keep ->
            Bytes.set t.s_cut_sent slot '\000';
            let (_ : bool) = apply_update t slot u in
            []
        | Policy.Cut ->
            if Bytes.get t.s_cut_sent slot = '\001' then []
            else begin
              Bytes.set t.s_cut_sent slot '\001';
              t.stats.Node.clear_bits_sent <- t.stats.Node.clear_bits_sent + 1;
              [ Node.Send_clear_bit { to_ = from; key = u.key } ]
            end
      end
    end
  end

(* {2 Clear-bits (Section 2.7)} *)

let handle_clear_bit t ~node ~now:_ ~from key =
  t.stats.Node.clear_bits_in <- t.stats.Node.clear_bits_in + 1;
  match find_local t node key with
  | Some slot ->
      Intset.remove t.s_interest.(slot) (Node_id.to_int from);
      []
  | None -> (
      match find_cache t node key with
      | None -> []
      | Some slot ->
          Intset.remove t.s_interest.(slot) (Node_id.to_int from);
          if
            Policy.uses_clear_bits t.config.Node.policy
            && Intset.is_empty t.s_interest.(slot)
            && Bytes.get t.s_pending slot = '\000'
            && Bytes.get t.s_cut_sent slot = '\000'
          then
            let decision =
              Policy.decide t.config.Node.policy ~distance:t.s_dist.(slot)
                ~queries_since_update:t.s_qsu.(slot)
                ~dry_updates:t.s_dry.(slot)
            in
            match (decision, t.s_upstream.(slot)) with
            | Policy.Cut, up when up >= 0 ->
                Bytes.set t.s_cut_sent slot '\001';
                t.stats.Node.clear_bits_sent <-
                  t.stats.Node.clear_bits_sent + 1;
                [ Node.Send_clear_bit { to_ = Node_id.of_int up; key } ]
            | Policy.Cut, _ | Policy.Keep, _ -> []
          else [])

(* {2 Churn (Section 2.9)} *)

let lose_upstream t slot =
  t.s_upstream.(slot) <- -1;
  t.s_queried_to.(slot) <- -1;
  Bytes.set t.s_pending slot '\000'

let iter_node_slots t nid f =
  match Hashtbl.find_opt t.head nid with
  | None -> ()
  | Some h ->
      let s = ref h in
      while !s >= 0 do
        (* Read the link first so [f] may free the slot. *)
        let next = t.s_next.(!s) in
        f !s;
        s := next
      done

let remap_neighbor t ~node ~old_id ~new_id =
  let o = Node_id.to_int old_id and n = Node_id.to_int new_id in
  iter_node_slots t (Node_id.to_int node) (fun slot ->
      Intset.remap t.s_interest.(slot) ~old_id:o ~new_id:n;
      if Bytes.get t.s_local slot = '\000' && t.s_upstream.(slot) = o then
        t.s_upstream.(slot) <- n)

let drop_neighbor t ~node neighbor =
  let nb = Node_id.to_int neighbor in
  iter_node_slots t (Node_id.to_int node) (fun slot ->
      Intset.remove t.s_interest.(slot) nb;
      if
        Bytes.get t.s_local slot = '\000'
        && (t.s_upstream.(slot) = nb || t.s_queried_to.(slot) = nb)
      then lose_upstream t slot)

let retain_neighbors t ~node current =
  let keep = Intset.create () in
  List.iter (fun id -> Intset.add keep (Node_id.to_int id)) current;
  iter_node_slots t (Node_id.to_int node) (fun slot ->
      List.iter
        (fun member ->
          if not (Intset.mem keep member) then
            Intset.remove t.s_interest.(slot) member)
        (Intset.to_list t.s_interest.(slot));
      if Bytes.get t.s_local slot = '\000' then
        let up = t.s_upstream.(slot) in
        if up >= 0 && not (Intset.mem keep up) then lose_upstream t slot)

let handover_local t node key =
  let packed = Node_key.pack node key in
  match Node_key.Table.find_opt t.local_index packed with
  | None -> []
  | Some slot ->
      let entries = ent_list t slot in
      free_slot t ~packed slot;
      entries

let receive_local t node key entries =
  add_local_key t node key;
  let slot =
    Option.get (find_local t node key)
  in
  List.iter
    (fun (e : Entry.t) ->
      let r = Replica_id.to_int e.replica in
      let exp = Time.to_seconds e.expiry in
      match ent_search t slot r with
      | i when i >= 0 -> if t.e_exp.(slot).(i) < exp then t.e_exp.(slot).(i) <- exp
      | _ -> ent_upsert t slot r exp)
    entries

(* {2 Introspection} *)

let fresh_entries t ~node ~now key =
  match find_cache t node key with
  | None -> []
  | Some slot -> fresh_ent_list t slot ~now

let pending_first t node key =
  match find_cache t node key with
  | None -> false
  | Some slot -> Bytes.get t.s_pending slot = '\001'

let interested_neighbors t node key =
  match find_cache t node key with
  | None -> []
  | Some slot -> List.map Node_id.of_int (Intset.to_list t.s_interest.(slot))

let popularity t node key =
  match find_cache t node key with
  | None -> 0
  | Some slot -> t.s_qsu.(slot)

let distance_of t node key =
  match find_cache t node key with
  | None -> None
  | Some slot ->
      if t.s_upstream.(slot) = -1 && t.e_len.(slot) = 0 then None
      else Some t.s_dist.(slot)

let keys_of t node ~local =
  let acc = ref [] in
  iter_node_slots t (Node_id.to_int node) (fun slot ->
      if Bytes.get t.s_local slot = (if local then '\001' else '\000') then
        acc := Key.of_int t.s_key.(slot) :: !acc);
  List.sort Key.compare !acc

let cached_keys t node = keys_of t node ~local:false
let owned_keys t node = keys_of t node ~local:true
