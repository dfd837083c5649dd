(* Named metrics registry: counters, gauges, and log-bucketed histograms.

   Instrumentation sites resolve their instrument once (at machine boot)
   and then update a bare mutable field on the hot path — no hashing, no
   allocation.  The registry exists for the cold paths: enumeration,
   snapshotting, and the JSON dump.

   Dumps are sorted by name, so two identical runs produce byte-identical
   metrics JSON — the same determinism contract as the event tracer. *)

open I432_util

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : int }
type log_histogram = { l_name : string; l_hist : Stats.log_hist }

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, log_histogram) Hashtbl.t;
  (* Domain id of the current writer, if claimed.  Registries are not
     thread-safe: exactly one domain may update instruments at a time.
     The parallel cluster engine claims each node's registry for the
     duration of a round slice; a second claim from a different domain is
     a bug in the engine's partitioning, not a race to tolerate. *)
  mutable writer : int option;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    writer = None;
  }

let claim t =
  let self = (Stdlib.Domain.self () :> int) in
  match t.writer with
  | Some d when d <> self ->
    failwith
      (Printf.sprintf
         "Metrics.claim: registry already claimed by domain %d (self %d)" d
         self)
  | Some _ | None -> t.writer <- Some self

let release t = t.writer <- None

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace t.counters name c;
    c

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let counter_value c = c.c_value

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = 0 } in
    Hashtbl.replace t.gauges name g;
    g

let set g v = g.g_value <- v
let gauge_value g = g.g_value

(* Every registry histogram has one shape: 10 ns .. 10 s at 16 buckets
   per decade (~15% relative width), sized for virtual-time latencies.
   One shape means any two same-named histograms merge, and every one
   reports quantiles. *)
let log_histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h =
      {
        l_name = name;
        l_hist = Stats.log_hist_create ~per_decade:16 ~lo:10.0 ~decades:9 ();
      }
    in
    Hashtbl.replace t.histograms name h;
    h

let observe_log h x = Stats.log_hist_observe h.l_hist x
let log_quantile h q = Stats.log_hist_quantile h.l_hist q

let find_counter t name = Hashtbl.find_opt t.counters name
let find_gauge t name = Hashtbl.find_opt t.gauges name
let find_log_histogram t name = Hashtbl.find_opt t.histograms name

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let counters t = List.map snd (sorted_bindings t.counters)
let gauges t = List.map snd (sorted_bindings t.gauges)
let log_histograms t = List.map snd (sorted_bindings t.histograms)

let log_hist_json (h : Stats.log_hist) =
  let open Jout in
  Obj
    [
      ("lo", Float h.Stats.lh_lo);
      ("per_decade", Int h.Stats.lh_per_decade);
      ("count", Int h.Stats.lh_count);
      ("sum", Float h.Stats.lh_sum);
      ("mean", Float (Stats.log_hist_mean h));
      ("min", if h.Stats.lh_count = 0 then Null else Float h.Stats.lh_min);
      ("max", if h.Stats.lh_count = 0 then Null else Float h.Stats.lh_max);
      ("p50", Float (Stats.log_hist_quantile h 0.50));
      ("p99", Float (Stats.log_hist_quantile h 0.99));
      ("p999", Float (Stats.log_hist_quantile h 0.999));
      ("underflow", Int h.Stats.lh_underflow);
      ("overflow", Int h.Stats.lh_overflow);
      ( "buckets",
        Arr (Array.to_list (Array.map (fun c -> Int c) h.Stats.lh_counts)) );
    ]

let to_json t =
  let open Jout in
  Obj
    [
      ("schema", Str "imax432-metrics/2");
      ( "counters",
        Obj (List.map (fun (k, c) -> (k, Int c.c_value)) (sorted_bindings t.counters)) );
      ( "gauges",
        Obj (List.map (fun (k, g) -> (k, Int g.g_value)) (sorted_bindings t.gauges)) );
      ( "histograms",
        Obj
          (List.map
             (fun (k, h) -> (k, log_hist_json h.l_hist))
             (sorted_bindings t.histograms)) );
    ]

(* Fold [src] into [dst]: counters and gauges add; histograms of the same
   name add bucket-wise (they all share the one shape).  Merging the per-node
   registries of a cluster in node order yields the same bytes from
   [to_json]/[render] regardless of which domain stepped which node,
   because dumps are name-sorted and the fold order is fixed by the
   caller. *)
let merge_into ~dst ~src =
  List.iter
    (fun (k, (c : counter)) ->
      let d = counter dst k in
      d.c_value <- d.c_value + c.c_value)
    (sorted_bindings src.counters);
  List.iter
    (fun (k, (g : gauge)) ->
      let d = gauge dst k in
      d.g_value <- d.g_value + g.g_value)
    (sorted_bindings src.gauges);
  List.iter
    (fun (k, (h : log_histogram)) ->
      let d = log_histogram dst k in
      Stats.log_hist_merge_into ~dst:d.l_hist ~src:h.l_hist)
    (sorted_bindings src.histograms)

(* Human-readable rendering for operator tooling. *)
let render t =
  let buf = Buffer.create 512 in
  List.iter
    (fun (k, c) -> Printf.bprintf buf "counter %-28s %d\n" k c.c_value)
    (sorted_bindings t.counters);
  List.iter
    (fun (k, g) -> Printf.bprintf buf "gauge   %-28s %d\n" k g.g_value)
    (sorted_bindings t.gauges);
  List.iter
    (fun (k, h) ->
      let s = h.l_hist in
      Printf.bprintf buf
        "hist    %-28s count %d mean %.1f p50 %.1f p99 %.1f p999 %.1f\n" k
        s.Stats.lh_count (Stats.log_hist_mean s)
        (Stats.log_hist_quantile s 0.50)
        (Stats.log_hist_quantile s 0.99)
        (Stats.log_hist_quantile s 0.999))
    (sorted_bindings t.histograms);
  Buffer.contents buf
