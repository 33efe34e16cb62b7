(* A scheduled event.  Its ordering key lives in the heap's arrays
   below; the cell carries what [top_time] and [take_top] return, and
   the tombstone. *)
type 'a cell = { time : Time.t; value : 'a; mutable cancelled : bool }

(* Unboxed, so a handle is the cell itself and [push] allocates only
   the cell. *)
type handle = H : 'a cell -> handle [@@unboxed]

(* A cell stays in one slot of [cells] while it is pending.  The binary
   heap itself (position 0 is the root) is three parallel arrays of
   unboxed words: [times] and [seqs] hold each pending event's ordering
   key and [slots] the slot of its cell.  Sifting compares and moves
   only those words, so it never dereferences a cell and no store in it
   passes the write barrier.

   [slots] is a permutation of every slot: positions [size] and beyond
   hold the free ones, so a push takes the free slot waiting at
   position [size].  A free slot holds [vacant], so the queue keeps no
   fired or discarded event (and whatever its closure captures)
   reachable. *)
type 'a t = {
  mutable cells : 'a cell array;
  mutable slots : int array;
  mutable times : float array;
  mutable seqs : int array;
  mutable size : int; (* heap positions in use, tombstones included *)
  mutable live : int;
  mutable next_seq : int;
}

let vacant_cell = { time = 0.; value = (); cancelled = true }

(* The [value] of a vacant slot is never read, so one [unit cell]
   stands in for any ['a cell]: cells are always boxed records. *)
let vacant () : 'a cell = Obj.magic vacant_cell

let create () =
  {
    cells = [||];
    slots = [||];
    times = [||];
    seqs = [||];
    size = 0;
    live = 0;
    next_seq = 0;
  }

let length t = t.live

let is_empty t = t.live = 0

(* Called when every slot is in use, so the new slots are the free ones
   and wait at the new positions. *)
let grow t =
  let cap = Array.length t.cells in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let cells = Array.make new_cap (vacant ()) in
  let slots = Array.init new_cap Fun.id in
  let times = Array.make new_cap 0. in
  let seqs = Array.make new_cap 0 in
  Array.blit t.cells 0 cells 0 cap;
  Array.blit t.slots 0 slots 0 cap;
  Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  t.cells <- cells;
  t.slots <- slots;
  t.times <- times;
  t.seqs <- seqs

let[@inline] fill t i time seq slot =
  t.slots.(i) <- slot;
  t.times.(i) <- time;
  t.seqs.(i) <- seq

let[@inline] move t ~src ~dst =
  t.slots.(dst) <- t.slots.(src);
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src)

(* Move the hole at [i] up past every parent later than [time], then
   fill it.  The new event's [seq] exceeds every stored one, so a
   parent with an equal time already precedes it and stops the walk. *)
let rec sift_up t i time seq slot =
  let parent = (i - 1) / 2 in
  if i > 0 && time < t.times.(parent) then begin
    move t ~src:parent ~dst:i;
    sift_up t parent time seq slot
  end
  else fill t i time seq slot

(* Move the hole at [i] down past every child earlier than
   [(time, seq)], then fill it. *)
let rec sift_down t i time seq slot =
  let left = (2 * i) + 1 in
  if left >= t.size then fill t i time seq slot
  else begin
    let right = left + 1 in
    let child =
      if right < t.size then begin
        let tl = t.times.(left) and tr = t.times.(right) in
        if tr < tl || (tr = tl && t.seqs.(right) < t.seqs.(left)) then right
        else left
      end
      else left
    in
    let tc = t.times.(child) in
    if tc < time || (tc = time && t.seqs.(child) < seq) then begin
      move t ~src:child ~dst:i;
      sift_down t child time seq slot
    end
    else fill t i time seq slot
  end

let push t ~time value =
  let seq = t.next_seq in
  let cell = { time; value; cancelled = false } in
  t.next_seq <- seq + 1;
  if t.size = Array.length t.cells then grow t;
  let pos = t.size in
  let slot = t.slots.(pos) in
  t.cells.(slot) <- cell;
  t.size <- pos + 1;
  t.live <- t.live + 1;
  sift_up t pos time seq slot;
  H cell

let cancel t (H cell) =
  if cell.cancelled then false
  else begin
    cell.cancelled <- true;
    t.live <- t.live - 1;
    true
  end

(* Take the root out and free its slot: the last position's event
   fills the hole, and the freed slot waits at the position it
   vacates.  The moved event's [time] reaches [sift_down] already
   boxed, so nothing is allocated. *)
let remove_root t =
  let slot = t.slots.(0) in
  let root = t.cells.(slot) in
  t.cells.(slot) <- vacant ();
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let moved = t.slots.(last) in
    sift_down t 0 t.cells.(moved).time t.seqs.(last) moved;
    t.slots.(last) <- slot
  end;
  root

(* Discard tombstoned cells sitting at the root. *)
let rec drain_cancelled t =
  if t.size > 0 && t.cells.(t.slots.(0)).cancelled then begin
    ignore (remove_root t);
    drain_cancelled t
  end

(* The root once cancelled cells above it are gone: the earliest live
   event. *)
let top_cell t =
  drain_cancelled t;
  if t.size = 0 then invalid_arg "Event_heap: no pending event";
  t.cells.(t.slots.(0))

(* The cell's [time] is the float [push] stored, already boxed, so
   returning it allocates nothing. *)
let top_time t = (top_cell t).time

let take_top t =
  ignore (top_cell t);
  let cell = remove_root t in
  t.live <- t.live - 1;
  (* Mark the fired cell so a late [cancel] on its handle reports
     failure instead of double-decrementing the live count. *)
  cell.cancelled <- true;
  cell.value
