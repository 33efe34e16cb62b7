(* Brown-style calendar queue (R. Brown, CACM 1988): an array of
   buckets, each covering a [width]-second slice of the virtual
   timeline, wrapping around like days on a desk calendar.  An event at
   time [s] lives in bucket [floor(s / width) mod nbuckets]; dequeue
   sweeps forward from the current position, so when the bucket width
   matches the event density both enqueue and dequeue are O(1)
   amortized.  CUP workloads are dominated by near-future timers (hop
   deliveries, expiries, channel drains), the calendar's best case.

   Determinism contract: pop order is the exact [(time, seq)] total
   order of {!Sched_cell}, identical to {!Event_heap}.  Two events with
   equal times always land in the same bucket (same [floor(s/width)]),
   and bucket lists are kept sorted by [(time, seq)], so the tie-break
   never depends on bucket geometry.  Width re-tuning only moves cells
   between buckets; it cannot reorder pops.

   Cancellation is O(1) tombstoning, exactly as in the heap: the cell
   is flagged and discarded when it surfaces at the head of its bucket
   during a sweep. *)

type 'a cell = 'a Sched_cell.cell = {
  time : Time.t;
  seq : int;
  value : 'a;
  mutable cancelled : bool;
}

type handle = Sched_cell.handle = H : 'a cell -> handle

type 'a t = {
  mutable buckets : 'a cell list array; (* each sorted by (time, seq) *)
  mutable width : float; (* seconds of timeline per bucket *)
  mutable size : int; (* stored cells, tombstones included *)
  mutable live : int; (* non-cancelled cells *)
  mutable next_seq : int;
  mutable pos : float; (* lower bound on every live event's time *)
}

let min_buckets = 8
let min_width = 1e-9

let create () =
  {
    buckets = Array.make min_buckets [];
    width = 1.;
    size = 0;
    live = 0;
    next_seq = 0;
    pos = 0.;
  }

let length t = t.live
let is_empty t = t.live = 0

let earlier = Sched_cell.earlier

(* Sorted insertion; buckets hold ~2 cells when the width is tuned, so
   the scan is short. *)
let rec insert_sorted cell = function
  | [] -> [ cell ]
  | c :: _ as l when earlier cell c -> cell :: l
  | c :: rest -> c :: insert_sorted cell rest

let bucket_index t s = int_of_float (s /. t.width) mod Array.length t.buckets

(* Re-tune the width to Brown's rule of thumb — a few events per
   bucket — then redistribute.  Called with the cells already pulled
   out of the old bucket array.

   The naive rule, [3 * (max - min) / count], collapses under
   repair-heavy schedules: fault workloads mix dense near-future timers
   (10 ms hop deliveries) with a handful of far-future cells (entry
   expiries, repair deadlines hundreds of seconds out), and those
   outliers inflate the spread until hundreds of dense events share one
   bucket, turning every sorted insert O(bucket).  So the width comes
   from the {e bulk} density instead: the inter-decile spread of a
   sorted strided sample, scaled by the fraction of events it covers.
   On an outlier-free timeline the deciles span the whole spread and
   the formula reduces exactly to Brown's rule.

   Determinism: the sample is strided, not random, and width only
   changes bucket geometry — pop order is the (time, seq) total order
   regardless (see the contract above). *)
let max_width_sample = 256

let retune t new_nbuckets cells =
  (match cells with
  | _ :: _ :: _ ->
      let ts =
        Array.of_list (List.map (fun c -> Time.to_seconds c.time) cells)
      in
      let n = Array.length ts in
      let stride = 1 + ((n - 1) / max_width_sample) in
      let k = 1 + ((n - 1) / stride) in
      let sample = Array.init k (fun i -> ts.(i * stride)) in
      Array.sort Float.compare sample;
      let lo_i = k / 10 in
      let hi_i = k - 1 - lo_i in
      let bulk = sample.(hi_i) -. sample.(lo_i) in
      let covered =
        float_of_int (hi_i - lo_i) /. float_of_int (Stdlib.max 1 (k - 1))
      in
      let spread = sample.(k - 1) -. sample.(0) in
      if bulk > 0. then
        t.width <-
          Float.max min_width (3. *. bulk /. (covered *. float_of_int n))
      else if spread > 0. then
        (* Bulk degenerate (most events at one instant) but outliers
           exist: fall back to the full-spread rule. *)
        t.width <- Float.max min_width (3. *. spread /. float_of_int n)
  | _ -> ());
  t.buckets <- Array.make new_nbuckets [];
  t.size <- 0;
  List.iter
    (fun c ->
      let idx = bucket_index t (Time.to_seconds c.time) in
      t.buckets.(idx) <- insert_sorted c t.buckets.(idx);
      t.size <- t.size + 1)
    cells

let live_cells t =
  Array.fold_right
    (fun bucket acc ->
      List.fold_right
        (fun c acc -> if c.cancelled then acc else c :: acc)
        bucket acc)
    t.buckets []

let resize t new_nbuckets = retune t new_nbuckets (live_cells t)

let push t ~time value =
  let cell = { time; seq = t.next_seq; value; cancelled = false } in
  t.next_seq <- t.next_seq + 1;
  let s = Time.to_seconds time in
  let idx = bucket_index t s in
  t.buckets.(idx) <- insert_sorted cell t.buckets.(idx);
  t.size <- t.size + 1;
  t.live <- t.live + 1;
  if s < t.pos then t.pos <- s;
  if t.size > 2 * Array.length t.buckets then
    resize t (2 * Array.length t.buckets);
  H cell

let cancel t (H cell) =
  if cell.cancelled then false
  else begin
    cell.cancelled <- true;
    t.live <- t.live - 1;
    true
  end

(* Drop tombstones sitting at the head of one bucket. *)
let rec prune t idx =
  match t.buckets.(idx) with
  | c :: rest when c.cancelled ->
      t.buckets.(idx) <- rest;
      t.size <- t.size - 1;
      prune t idx
  | _ -> ()

(* Fallback when a full sweep finds no event within one calendar year:
   the queue is sparse relative to the width, so scan every bucket head
   for the global minimum.  Equal times share a bucket, so the head
   comparison is already the full (time, seq) order. *)
let direct_search t =
  let best = ref None in
  for idx = 0 to Array.length t.buckets - 1 do
    prune t idx;
    match t.buckets.(idx) with
    | c :: _ -> (
        match !best with
        | Some (bc, _) when earlier bc c -> ()
        | Some _ | None -> best := Some (c, idx))
    | [] -> ()
  done;
  match !best with
  | Some (c, idx) ->
      t.pos <- Time.to_seconds c.time;
      Some idx
  | None -> None

(* Locate the bucket whose head is the earliest live event, advancing
   [pos].  The sweep starts at the bucket containing [pos] (a lower
   bound on every live time) and inspects each virtual bucket's window
   once; an event found inside its window is the global minimum because
   earlier windows were already ruled out and later occupants of the
   same physical bucket belong to later calendar years.  The window test
   is the same floor that {!bucket_index} takes: comparing the time with
   [(vb + 1) *. width] instead disagrees with it when that product
   rounds down onto the time, and the event then pops a year late. *)
let find_min t =
  if t.live = 0 then begin
    (* An all-cancelled calendar must report empty without scanning on
       every call: flush the tombstones now. *)
    if t.size > 0 then begin
      Array.fill t.buckets 0 (Array.length t.buckets) [];
      t.size <- 0
    end;
    None
  end
  else begin
    let n = Array.length t.buckets in
    let rec sweep vb steps =
      if steps = n then direct_search t
      else begin
        let idx = vb mod n in
        prune t idx;
        match t.buckets.(idx) with
        | c :: _ when int_of_float (Time.to_seconds c.time /. t.width) <= vb ->
            t.pos <- Time.to_seconds c.time;
            Some idx
        | _ -> sweep (vb + 1) (steps + 1)
      end
    in
    sweep (int_of_float (t.pos /. t.width)) 0
  end

let pop t =
  match find_min t with
  | None -> None
  | Some idx -> (
      match t.buckets.(idx) with
      | c :: rest ->
          t.buckets.(idx) <- rest;
          t.size <- t.size - 1;
          t.live <- t.live - 1;
          (* Mark the fired cell so a late [cancel] on its handle
             reports failure instead of double-decrementing the live
             count. *)
          c.cancelled <- true;
          let n = Array.length t.buckets in
          if n > min_buckets && t.size < n / 2 then resize t (n / 2);
          Some (c.time, c.value)
      | [] -> assert false (* find_min returned a pruned, nonempty bucket *))

let peek_time t =
  match find_min t with
  | None -> None
  | Some idx -> (
      match t.buckets.(idx) with
      | c :: _ -> Some c.time
      | [] -> assert false)
