type t = {
  mutable query_hops : int;
  mutable first_time_answer_hops : int;
  mutable first_time_proactive_hops : int;
  mutable refresh_hops : int;
  mutable delete_hops : int;
  mutable append_hops : int;
  mutable clear_bit_hops : int;
  mutable hits : int;
  mutable misses : int;
  mutable dropped_updates : int;
  mutable lost_messages : int;
  mutable duplicated : int;
  mutable retries : int;
  mutable repairs : int;
  mutable unreachable : int;
  mutable sent : int;
  mutable delivered : int;
  mutable transport_lost : int;
  mutable in_flight : int;
  mutable transport_visible : bool;
  (* Route-cache effectiveness.  Deliberately NOT part of [pp] or any
     deterministic output: the cache is a speed-only mechanism, and
     these differ across cache-on/off/bypass configurations whose
     protocol results are byte-identical. *)
  mutable route_cache_hits : int;
  mutable route_cache_misses : int;
  latency_hops : Welford.t;
  latency_histogram : Histogram.t;
}

let create () =
  {
    query_hops = 0;
    first_time_answer_hops = 0;
    first_time_proactive_hops = 0;
    refresh_hops = 0;
    delete_hops = 0;
    append_hops = 0;
    clear_bit_hops = 0;
    hits = 0;
    misses = 0;
    dropped_updates = 0;
    lost_messages = 0;
    duplicated = 0;
    retries = 0;
    repairs = 0;
    unreachable = 0;
    sent = 0;
    delivered = 0;
    transport_lost = 0;
    in_flight = 0;
    transport_visible = false;
    route_cache_hits = 0;
    route_cache_misses = 0;
    latency_hops = Welford.create ();
    latency_histogram = Histogram.create ();
  }

let record_query_hop t = t.query_hops <- t.query_hops + 1

let record_first_time_hop t ~answering =
  if answering then t.first_time_answer_hops <- t.first_time_answer_hops + 1
  else t.first_time_proactive_hops <- t.first_time_proactive_hops + 1

let record_update_hop t = function
  | `Refresh -> t.refresh_hops <- t.refresh_hops + 1
  | `Delete -> t.delete_hops <- t.delete_hops + 1
  | `Append -> t.append_hops <- t.append_hops + 1

let record_clear_bit_hop t = t.clear_bit_hops <- t.clear_bit_hops + 1
let record_hit t = t.hits <- t.hits + 1

(* Takes the latency already converted to hops so the hot path is
   three unconditional stores plus the accumulator updates — callers
   precompute the 1/hop_delay factor once per run instead of paying a
   branch and a division per miss. *)
let record_miss t ~hops =
  t.misses <- t.misses + 1;
  Welford.add t.latency_hops hops;
  Histogram.add t.latency_histogram hops

let record_dropped_update t = t.dropped_updates <- t.dropped_updates + 1
let record_lost_message t = t.lost_messages <- t.lost_messages + 1
let record_duplicate t = t.duplicated <- t.duplicated + 1
let record_retry t = t.retries <- t.retries + 1

(* Each transport recorder moves one message between exactly two terms
   of the conservation identity sent = delivered + lost + in_flight,
   so the identity holds at every instant, not just at run end. *)
let record_sent t =
  t.sent <- t.sent + 1;
  t.in_flight <- t.in_flight + 1

let record_delivered t =
  t.delivered <- t.delivered + 1;
  t.in_flight <- t.in_flight - 1

let record_transport_lost t =
  t.transport_lost <- t.transport_lost + 1;
  t.in_flight <- t.in_flight - 1

let expose_transport t = t.transport_visible <- true

let set_route_cache_stats t ~hits ~misses =
  t.route_cache_hits <- hits;
  t.route_cache_misses <- misses

let record_repair t = t.repairs <- t.repairs + 1
let record_unreachable t = t.unreachable <- t.unreachable + 1

let query_hops t = t.query_hops
let first_time_answer_hops t = t.first_time_answer_hops
let first_time_proactive_hops t = t.first_time_proactive_hops
let refresh_hops t = t.refresh_hops
let delete_hops t = t.delete_hops
let append_hops t = t.append_hops
let clear_bit_hops t = t.clear_bit_hops

let miss_cost t = t.query_hops + t.first_time_answer_hops

let overhead_cost t =
  t.first_time_proactive_hops + t.refresh_hops + t.delete_hops
  + t.append_hops + t.clear_bit_hops

let total_cost t = miss_cost t + overhead_cost t

let hits t = t.hits
let misses t = t.misses
let local_queries t = t.hits + t.misses
let dropped_updates t = t.dropped_updates
let lost_messages t = t.lost_messages
let duplicated t = t.duplicated
let retries t = t.retries
let repairs t = t.repairs
let unreachable t = t.unreachable
let sent t = t.sent
let delivered t = t.delivered
let transport_lost t = t.transport_lost
let in_flight t = t.in_flight
let route_cache_hits t = t.route_cache_hits
let route_cache_misses t = t.route_cache_misses
let miss_latency_hops t = t.latency_hops

let miss_latency_percentile t q = Histogram.quantile t.latency_histogram q
let avg_miss_latency_hops t = Welford.mean t.latency_hops

let merge a b =
  {
    query_hops = a.query_hops + b.query_hops;
    first_time_answer_hops = a.first_time_answer_hops + b.first_time_answer_hops;
    first_time_proactive_hops =
      a.first_time_proactive_hops + b.first_time_proactive_hops;
    refresh_hops = a.refresh_hops + b.refresh_hops;
    delete_hops = a.delete_hops + b.delete_hops;
    append_hops = a.append_hops + b.append_hops;
    clear_bit_hops = a.clear_bit_hops + b.clear_bit_hops;
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    dropped_updates = a.dropped_updates + b.dropped_updates;
    lost_messages = a.lost_messages + b.lost_messages;
    duplicated = a.duplicated + b.duplicated;
    retries = a.retries + b.retries;
    repairs = a.repairs + b.repairs;
    unreachable = a.unreachable + b.unreachable;
    sent = a.sent + b.sent;
    delivered = a.delivered + b.delivered;
    transport_lost = a.transport_lost + b.transport_lost;
    in_flight = a.in_flight + b.in_flight;
    transport_visible = a.transport_visible || b.transport_visible;
    route_cache_hits = a.route_cache_hits + b.route_cache_hits;
    route_cache_misses = a.route_cache_misses + b.route_cache_misses;
    latency_hops = Welford.merge a.latency_hops b.latency_hops;
    latency_histogram = Histogram.merge a.latency_histogram b.latency_histogram;
  }

let pp fmt t =
  Format.fprintf fmt
    "@[<v>miss cost: %d hops (%d query + %d first-time)@,\
     overhead:  %d hops (%d proactive-ft + %d refresh + %d delete + %d \
     append + %d clear-bit)@,\
     total:     %d hops@,\
     queries:   %d local (%d hits, %d misses), avg miss latency %.2f hops"
    (miss_cost t) t.query_hops t.first_time_answer_hops (overhead_cost t)
    t.first_time_proactive_hops t.refresh_hops t.delete_hops t.append_hops
    t.clear_bit_hops (total_cost t) (local_queries t) t.hits t.misses
    (avg_miss_latency_hops t);
  (* The fault line only appears when fault injection actually touched
     the run, so fault-free output keeps its historical shape. *)
  if t.lost_messages + t.duplicated + t.retries + t.repairs + t.unreachable > 0
  then begin
    Format.fprintf fmt
      "@,faults:    %d lost, %d retries, %d repairs, %d unreachable"
      t.lost_messages t.retries t.repairs t.unreachable;
    if t.duplicated > 0 then Format.fprintf fmt ", %d duplicated" t.duplicated
  end;
  (* The transport line appears only when conservation checking was
     turned on ({!expose_transport}) so default output keeps its
     historical shape. *)
  if t.transport_visible then
    Format.fprintf fmt
      "@,transport: %d sent = %d delivered + %d lost + %d in flight" t.sent
      t.delivered t.transport_lost t.in_flight;
  Format.fprintf fmt "@]"
