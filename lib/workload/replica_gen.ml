module Time = Cup_dess.Time
module Rng = Cup_prng.Rng
module Dist = Cup_prng.Dist
module Heap = Cup_dess.Event_heap

type event_kind = Birth | Refresh | Death

type event = {
  at : Time.t;
  kind : event_kind;
  key_index : int;
  replica : int;
  lifetime : float;
}

type pending = { p_kind : event_kind; p_key : int; p_replica : int }

type t = {
  rng : Rng.t;
  lifetime : float;
  stop : Time.t;
  death_prob : float;
  heap : pending Heap.t;
  mutable next_replica : int;
}

let fresh_replica t =
  let r = t.next_replica in
  t.next_replica <- r + 1;
  r

let schedule t ~at kind key replica =
  if Time.(at <= t.stop) then
    ignore
      (Heap.push t.heap ~time:at { p_kind = kind; p_key = key; p_replica = replica })

let create ~rng ~keys ~replicas_per_key ~lifetime ~stop ?(death_prob = 0.) () =
  if keys <= 0 then invalid_arg "Replica_gen.create: keys must be > 0";
  if replicas_per_key <= 0 then
    invalid_arg "Replica_gen.create: replicas_per_key must be > 0";
  if not (lifetime > 0.) then
    invalid_arg "Replica_gen.create: lifetime must be > 0";
  if death_prob < 0. || death_prob > 1. then
    invalid_arg "Replica_gen.create: death_prob must be in [0, 1]";
  let t =
    {
      rng;
      lifetime;
      stop;
      death_prob;
      heap = Heap.create ();
      next_replica = 0;
    }
  in
  for key = 0 to keys - 1 do
    for _ = 1 to replicas_per_key do
      let replica = fresh_replica t in
      (* Stagger births across the first lifetime window so refresh
         points do not all align. *)
      let at = Time.of_seconds (Rng.float rng *. lifetime) in
      schedule t ~at Birth key replica
    done
  done;
  t

let next t =
  if Heap.is_empty t.heap then None
  else begin
    let at = Heap.top_time t.heap in
    let p = Heap.take_top t.heap in
    let emit kind =
      { at; kind; key_index = p.p_key; replica = p.p_replica;
        lifetime = t.lifetime }
    in
    (match p.p_kind with
    | Birth | Refresh ->
        (* The entry expires one lifetime from now; the replica then
           refreshes or (with death_prob) dies and is replaced. *)
        let next_at = Time.add at t.lifetime in
        if Dist.bernoulli t.rng ~p:t.death_prob then begin
          schedule t ~at:next_at Death p.p_key p.p_replica;
          let replacement = fresh_replica t in
          schedule t ~at:next_at Birth p.p_key replacement
        end
        else schedule t ~at:next_at Refresh p.p_key p.p_replica
    | Death -> ());
    Some (emit p.p_kind)
  end

let fold t ~init ~f =
  let rec loop acc = match next t with None -> acc | Some e -> loop (f acc e) in
  loop init
