(* Messages column-wise, in arrays that only grow. *)
type 'a buf = {
  mutable len : int;
  mutable key : int array;
  mutable arg : int array;
  mutable seq : int array;
  mutable obj : 'a array;
}

(* A shard's inbox, and the permutation its sort orders: [perm.(i)] is
   the inbox index of the [i]th message in key order.  [perm'] is the
   other half of the merge. *)
type 'a inbox = {
  msgs : 'a buf;
  mutable perm : int array;
  mutable perm' : int array;
}

type 'a t = {
  shards : int;
  windows : int;
  out : 'a buf array array; (* [src].(dst) *)
  inbox : 'a inbox array;
  mutable dropped : int;
}

(* Arrays start empty, so the shards x shards outboxes cost nothing
   until a message is sent through them. *)
let new_buf () = { len = 0; key = [||]; arg = [||]; seq = [||]; obj = [||] }

let create ~shards ~windows =
  if shards < 1 then invalid_arg "Window_sync.create: shards must be >= 1";
  if windows < 1 then invalid_arg "Window_sync.create: windows must be >= 1";
  {
    shards;
    windows;
    out = Array.init shards (fun _ -> Array.init shards (fun _ -> new_buf ()));
    inbox =
      Array.init shards (fun _ ->
          { msgs = new_buf (); perm = [||]; perm' = [||] });
    dropped = 0;
  }

let capacity need cap =
  let c = ref (max 64 cap) in
  while !c < need do
    c := 2 * !c
  done;
  !c

let resize a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* [fill] is any ['a] at hand; slots past [len] are never read. *)
let reserve b need fill =
  let cap = Array.length b.key in
  if need > cap then begin
    let cap = capacity need cap in
    b.key <- resize b.key cap 0;
    b.arg <- resize b.arg cap 0;
    b.seq <- resize b.seq cap 0;
    b.obj <- resize b.obj cap fill
  end

(* {1 The key} *)

let id_bits = 30
let id_limit = 1 lsl id_bits
let dst_of k = k lsr 32
let cls_of k = (k lsr id_bits) land 3
let src_of k = k land (id_limit - 1)

let send t ~shard ~to_shard ~dst ~cls ~src ~arg ~seq obj =
  if (dst lor src) lsr id_bits <> 0 || cls lsr 2 <> 0 then
    invalid_arg "Window_sync.send: id or class out of range";
  let key = (dst lsl 32) lor (cls lsl id_bits) lor src in
  let b = t.out.(shard).(to_shard) in
  let i = b.len in
  if i = Array.length b.key then reserve b (i + 1) obj;
  b.key.(i) <- key;
  b.arg.(i) <- arg;
  b.seq.(i) <- seq;
  b.obj.(i) <- obj;
  b.len <- i + 1

let append into from =
  let n = from.len and at = into.len in
  if n > 0 then reserve into (at + n) from.obj.(0);
  Array.blit from.key 0 into.key at n;
  Array.blit from.arg 0 into.arg at n;
  Array.blit from.seq 0 into.seq at n;
  Array.blit from.obj 0 into.obj at n;
  into.len <- at + n

let exchange t ~window =
  let last = window + 1 >= t.windows in
  for d = 0 to t.shards - 1 do
    let into = t.inbox.(d).msgs in
    into.len <- 0;
    for s = 0 to t.shards - 1 do
      let from = t.out.(s).(d) in
      if last then t.dropped <- t.dropped + from.len
      else append into from;
      from.len <- 0
    done
  done

(* {1 The sort}

   A stable bottom-up merge sort of the permutation by key:
   insertion-sorted runs of [run] messages, then passes that merge pairs
   of runs into the other buffer.  Equal keys never pass each other —
   the insertion sort shifts only strictly greater keys, and a merge
   takes from the left run on a tie — so they keep their inbox order. *)

let run = 16

(* Every index below stays inside [0, n) of arrays at least [n] long. *)
external get : int array -> int -> int = "%array_unsafe_get"
external set : int array -> int -> int -> unit = "%array_unsafe_set"

let insertion_sort k p lo hi =
  for i = lo + 1 to hi - 1 do
    let pv = get p i in
    let kv = get k pv in
    let j = ref (i - 1) in
    while !j >= lo && get k (get p !j) > kv do
      set p (!j + 1) (get p !j);
      decr j
    done;
    set p (!j + 1) pv
  done

let merge k p p' lo mid hi =
  let i = ref lo and j = ref mid in
  for d = lo to hi - 1 do
    if !j >= hi || (!i < mid && get k (get p !i) <= get k (get p !j)) then begin
      set p' d (get p !i);
      incr i
    end
    else begin
      set p' d (get p !j);
      incr j
    end
  done

let sort_inbox t ~shard =
  let ib = t.inbox.(shard) in
  let n = ib.msgs.len and k = ib.msgs.key in
  if n > Array.length ib.perm then begin
    let cap = capacity n (Array.length ib.perm) in
    ib.perm <- Array.make cap 0;
    ib.perm' <- Array.make cap 0
  end;
  for i = 0 to n - 1 do
    ib.perm.(i) <- i
  done;
  let lo = ref 0 in
  while !lo < n do
    insertion_sort k ib.perm !lo (min n (!lo + run));
    lo := !lo + run
  done;
  let width = ref run in
  while !width < n do
    let w = !width in
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + w) in
      merge k ib.perm ib.perm' !lo mid (min n (mid + w));
      lo := !lo + (2 * w)
    done;
    let p = ib.perm in
    ib.perm <- ib.perm';
    ib.perm' <- p;
    width := 2 * w
  done;
  n

let[@inline] key t ~shard i =
  let ib = t.inbox.(shard) in
  ib.msgs.key.(ib.perm.(i))

let[@inline] arg t ~shard i =
  let ib = t.inbox.(shard) in
  ib.msgs.arg.(ib.perm.(i))

let[@inline] seq t ~shard i =
  let ib = t.inbox.(shard) in
  ib.msgs.seq.(ib.perm.(i))

let[@inline] obj t ~shard i =
  let ib = t.inbox.(shard) in
  ib.msgs.obj.(ib.perm.(i))

let dropped t = t.dropped
