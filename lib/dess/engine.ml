type label_stats = { calls : int; host_seconds : float }
type profile = { heap_high_water : int; by_label : (string * label_stats) list }

(* Mutable accumulator behind the read-only [profile] snapshot. *)
type probe = {
  mutable collecting : bool;
  mutable high_water : int;
  labels : (string, int ref * float ref) Hashtbl.t;
}

type t = {
  mutable clock : Time.t;
  mutable executed : int;
  mutable stopping : bool;
  mutable probe : probe option;
  queue : (t -> unit) Event_heap.t;
}

type handle = Event_heap.handle

let create () =
  {
    clock = Time.zero;
    executed = 0;
    stopping = false;
    probe = None;
    queue = Event_heap.create ();
  }

let now t = t.clock

let default_label = "(unlabeled)"

let label_cell probe label =
  match Hashtbl.find_opt probe.labels label with
  | Some cell -> cell
  | None ->
      let cell = (ref 0, ref 0.) in
      Hashtbl.replace probe.labels label cell;
      cell

(* Wrap a callback so its execution is attributed to [label].  Only
   used while profiling is enabled: the disabled path pushes [f]
   untouched, so probes are zero-cost when off. *)
let instrument probe label f t =
  if probe.collecting then begin
    let calls, seconds = label_cell probe label in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        incr calls;
        seconds := !seconds +. (Unix.gettimeofday () -. t0))
      (fun () -> f t)
  end
  else f t

let schedule ?label t ~at f =
  if not (Time.is_finite at) then
    invalid_arg "Engine.schedule: time must be finite";
  if Time.(at < t.clock) then
    invalid_arg "Engine.schedule: cannot schedule in the past";
  (* One branch on the common (profiling-off) path: a probe that
     exists but is not collecting takes the same bare push as no probe
     at all, instead of wrapping the callback just to test
     [collecting] again at execution time. *)
  match t.probe with
  | Some probe when probe.collecting ->
      let label = Option.value label ~default:default_label in
      let handle =
        Event_heap.push t.queue ~time:at (instrument probe label f)
      in
      let len = Event_heap.length t.queue in
      if len > probe.high_water then probe.high_water <- len;
      handle
  | Some _ | None -> Event_heap.push t.queue ~time:at f

let schedule_after ?label t ~delay f =
  if delay < 0. then invalid_arg "Engine.schedule_after: negative delay";
  schedule ?label t ~at:(Time.add t.clock delay) f

let cancel t handle = Event_heap.cancel t.queue handle

let stop t = t.stopping <- true

let run ?(until = Time.infinity) ?(max_events = max_int) t =
  t.stopping <- false;
  let budget = ref max_events in
  let rec loop () =
    if t.stopping || !budget <= 0 then ()
    else
      match Event_heap.peek_time t.queue with
      | None -> ()
      | Some time when Time.(time > until) ->
          if Time.is_finite until then t.clock <- Time.max t.clock until
      | Some _ -> (
          match Event_heap.pop t.queue with
          | None -> ()
          | Some (time, f) ->
              t.clock <- time;
              t.executed <- t.executed + 1;
              decr budget;
              f t;
              loop ())
  in
  loop ()

let pending t = Event_heap.length t.queue

let events_executed t = t.executed

let enable_profiling t =
  match t.probe with
  | Some probe -> probe.collecting <- true
  | None ->
      t.probe <-
        Some { collecting = true; high_water = 0; labels = Hashtbl.create 16 }

let disable_profiling t =
  match t.probe with Some probe -> probe.collecting <- false | None -> ()

let profiling_enabled t =
  match t.probe with Some probe -> probe.collecting | None -> false

let profile t =
  match t.probe with
  | None -> None
  | Some probe ->
      let by_label =
        Hashtbl.fold
          (fun label (calls, seconds) acc ->
            (label, { calls = !calls; host_seconds = !seconds }) :: acc)
          probe.labels []
        |> List.sort (fun (la, a) (lb, b) ->
               match Float.compare b.host_seconds a.host_seconds with
               | 0 -> String.compare la lb
               | c -> c)
      in
      Some { heap_high_water = probe.high_water; by_label }

let pp_profile fmt p =
  Format.fprintf fmt "@[<v>event-heap high water: %d pending@," p.heap_high_water;
  List.iter
    (fun (label, s) ->
      Format.fprintf fmt "%-18s %8d calls  %8.3f ms host@," label s.calls
        (1000. *. s.host_seconds))
    p.by_label;
  Format.fprintf fmt "@]"
