(* A labeled metrics registry with deterministic export.

   Series are keyed by (name, sorted labels); every read path —
   Prometheus text, CSV rows, pp — walks series in that sorted order,
   so two registries holding equal values print byte-identical text no
   matter the order metrics were registered or updated in.  That is
   what lets CI byte-compare [--metrics-out] dumps across job counts
   and against pinned digests. *)

type counter = { mutable c : int }
type gauge = { mutable g : float }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Hist of Histogram.t

type series = { name : string; labels : (string * string) list }

type t = {
  tbl : (series, metric) Hashtbl.t;
  help : (string, string) Hashtbl.t; (* name -> help text *)
}

let create () = { tbl = Hashtbl.create 32; help = Hashtbl.create 32 }

let canonical_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

let series name labels = { name; labels = canonical_labels labels }

let set_help t name = function
  | None -> ()
  | Some h -> if not (Hashtbl.mem t.help name) then Hashtbl.replace t.help name h

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let clash s existing requested =
  invalid_arg
    (Printf.sprintf "Registry: %s already registered as a %s, requested as %s"
       s.name (kind_name existing) requested)

let counter t ?help ?(labels = []) name =
  let s = series name labels in
  set_help t name help;
  match Hashtbl.find_opt t.tbl s with
  | Some (Counter c) -> c
  | Some m -> clash s m "counter"
  | None ->
      let c = { c = 0 } in
      Hashtbl.replace t.tbl s (Counter c);
      c

let gauge t ?help ?(labels = []) name =
  let s = series name labels in
  set_help t name help;
  match Hashtbl.find_opt t.tbl s with
  | Some (Gauge g) -> g
  | Some m -> clash s m "gauge"
  | None ->
      let g = { g = 0. } in
      Hashtbl.replace t.tbl s (Gauge g);
      g

let histogram t ?help ?(labels = []) ?min_value ?max_value ?bins_per_decade
    name =
  let s = series name labels in
  set_help t name help;
  match Hashtbl.find_opt t.tbl s with
  | Some (Hist h) -> h
  | Some m -> clash s m "histogram"
  | None ->
      let h = Histogram.create ?min_value ?max_value ?bins_per_decade () in
      Hashtbl.replace t.tbl s (Hist h);
      h

let inc ?(by = 1) c = c.c <- c.c + by
let counter_value c = c.c
let set g v = g.g <- v
let gauge_value g = g.g
let observe h v = Histogram.add h v

let series_count t = Hashtbl.length t.tbl

(* {2 Merge} *)

(* Pointwise: counters sum, histograms merge exactly (bin counts are
   integers, so merging per-seed registries in seed order is
   reproducible), gauges keep the maximum — the only pointwise
   combination that is order-independent without extra state. *)
let merge a b =
  let out = create () in
  let copy_help src =
    Hashtbl.iter
      (fun name h ->
        if not (Hashtbl.mem out.help name) then Hashtbl.replace out.help name h)
      src.help
  in
  copy_help a;
  copy_help b;
  let add_all src =
    Hashtbl.iter
      (fun s m ->
        match (Hashtbl.find_opt out.tbl s, m) with
        | None, Counter c -> Hashtbl.replace out.tbl s (Counter { c = c.c })
        | None, Gauge g -> Hashtbl.replace out.tbl s (Gauge { g = g.g })
        | None, Hist h ->
            let min_value, max_value, bins_per_decade = Histogram.config h in
            let fresh =
              Histogram.create ~min_value ~max_value ~bins_per_decade ()
            in
            Hashtbl.replace out.tbl s (Hist (Histogram.merge fresh h))
        | Some (Counter acc), Counter c -> acc.c <- acc.c + c.c
        | Some (Gauge acc), Gauge g -> acc.g <- Float.max acc.g g.g
        | Some (Hist acc), Hist h ->
            Hashtbl.replace out.tbl s (Hist (Histogram.merge acc h))
        | Some existing, m -> clash s existing (kind_name m))
      src.tbl
  in
  add_all a;
  add_all b;
  out

(* {2 Export} *)

let sorted_series t =
  let cmp_labels la lb =
    compare
      (List.map (fun (k, v) -> (k, v)) la)
      (List.map (fun (k, v) -> (k, v)) lb)
  in
  List.sort
    (fun (sa, _) (sb, _) ->
      match String.compare sa.name sb.name with
      | 0 -> cmp_labels sa.labels sb.labels
      | c -> c)
    (Hashtbl.fold (fun s m acc -> (s, m) :: acc) t.tbl [])

(* Shortest decimal form that round-trips; deterministic for a given
   float, which is all byte-compared exports need. *)
let float_str f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let label_block labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

(* Prometheus [le] label appended after the series' own labels. *)
let bucket_block labels le =
  let le_s = if le = Float.infinity then "+Inf" else float_str le in
  label_block (labels @ [ ("le", le_s) ])

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun (s, m) ->
      if not (Hashtbl.mem seen_header s.name) then begin
        Hashtbl.replace seen_header s.name ();
        (match Hashtbl.find_opt t.help s.name with
        | Some h -> Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" s.name h)
        | None -> ());
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" s.name (kind_name m))
      end;
      match m with
      | Counter c ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" s.name (label_block s.labels) c.c)
      | Gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" s.name (label_block s.labels)
               (float_str g.g))
      | Hist h ->
          let cumulative = ref 0 in
          List.iter
            (fun (upper, count) ->
              if upper < Float.infinity then begin
                cumulative := !cumulative + count;
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" s.name
                     (bucket_block s.labels upper)
                     !cumulative)
              end)
            (Histogram.buckets h);
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" s.name
               (bucket_block s.labels Float.infinity)
               (Histogram.count h));
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" s.name (label_block s.labels)
               (float_str (Histogram.total h)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" s.name (label_block s.labels)
               (Histogram.count h)))
    (sorted_series t);
  Buffer.contents buf

let csv_header =
  [
    "metric"; "labels"; "type"; "value"; "count"; "sum"; "p50"; "p90"; "p99";
    "max";
  ]

let csv_rows t =
  List.map
    (fun (s, m) ->
      let labels =
        String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) s.labels)
      in
      match m with
      | Counter c ->
          [ s.name; labels; "counter"; string_of_int c.c; ""; ""; ""; ""; ""; "" ]
      | Gauge g ->
          [ s.name; labels; "gauge"; float_str g.g; ""; ""; ""; ""; ""; "" ]
      | Hist h ->
          let q p = float_str (Histogram.quantile h p) in
          [
            s.name;
            labels;
            "histogram";
            "";
            string_of_int (Histogram.count h);
            float_str (Histogram.total h);
            q 0.5;
            q 0.9;
            q 0.99;
            q 1.0;
          ])
    (sorted_series t)

let pp fmt t =
  List.iter
    (fun (s, m) ->
      match m with
      | Counter c ->
          Format.fprintf fmt "%s%s = %d@." s.name (label_block s.labels) c.c
      | Gauge g ->
          Format.fprintf fmt "%s%s = %s@." s.name (label_block s.labels)
            (float_str g.g)
      | Hist h ->
          Format.fprintf fmt "%s%s: %a@." s.name (label_block s.labels)
            Histogram.pp h)
    (sorted_series t)
