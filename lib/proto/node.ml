module Key = Cup_overlay.Key
module Node_id = Cup_overlay.Node_id
module Time = Cup_dess.Time
module Store = Node_store

type config = Store.config = {
  policy : Policy.t;
  replica_independent_cutoff : bool;
}

let default_config = Store.default_config

type source = Store.source =
  | From_neighbor of Node_id.t
  | From_local of Time.t

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

type t = { store : Store.t; node : Node_id.t }

let create ~id config = { store = Store.create config; node = id }
let view store node = { store; node }
let stats t = Store.stats t.store

let handle_query t ~now ~next_hop source key =
  match next_hop with
  | None ->
      Store.handle_query t.store ~node:t.node ~now ~owner:true
        ~route:(fun _ _ -> Cup_overlay.Route.Owner)
        source key
  | Some hop ->
      Store.handle_query t.store ~node:t.node ~now ~owner:false
        ~route:(fun _ _ -> Cup_overlay.Route.Forward hop)
        source key

let handle_update t ~now ~from update =
  Store.handle_update t.store ~node:t.node ~now ~from update

let handle_clear_bit t ~now ~from key =
  Store.handle_clear_bit t.store ~node:t.node ~now ~from key

let add_local_key t key = Store.add_local_key t.store t.node key
let owns t key = Store.owns t.store t.node key
let local_directory t key = Store.local_directory t.store t.node key

let replica_birth t ~now ~key entry =
  Store.replica_birth t.store ~node:t.node ~now ~key entry

let replica_refresh t ~now ~key entry =
  Store.replica_refresh t.store ~node:t.node ~now ~key entry

let replica_refresh_batch t ~now ~key entries =
  Store.replica_refresh_batch t.store ~node:t.node ~now ~key entries

let replica_death t ~now ~key replica =
  Store.replica_death t.store ~node:t.node ~now ~key replica

let remap_neighbor t ~old_id ~new_id =
  Store.remap_neighbor t.store ~node:t.node ~old_id ~new_id

let drop_neighbor t neighbor = Store.drop_neighbor t.store ~node:t.node neighbor

let retain_neighbors t current =
  Store.retain_neighbors t.store ~node:t.node current

let handover_local t key = Store.handover_local t.store t.node key
let receive_local t key entries = Store.receive_local t.store t.node key entries
let fresh_entries t ~now key = Store.fresh_entries t.store ~node:t.node ~now key
let pending_first t key = Store.pending_first t.store t.node key
let interested_neighbors t key = Store.interested_neighbors t.store t.node key
let distance_of t key = Store.distance_of t.store t.node key
let cached_keys t = Store.cached_keys t.store t.node
let owned_keys t = Store.owned_keys t.store t.node
