(* Tests for the observability layer: tracer rings (overflow, drop
   accounting), cross-run determinism of events and metrics, the Chrome
   trace exporter, the metrics registry, and the snapshot extensions. *)

module K = I432_kernel
module Obs = I432_obs

let mk ?(processors = 1) ~level () =
  K.Machine.create
    ~config:
      {
        K.Machine.default_config with
        K.Machine.processors;
        trace_level = level;
      }
    ()

let run m = K.Machine.run ~max_ns:2_000_000_000 ~max_steps:2_000_000 m

(* A small deterministic two-processor workload touching every traced
   subsystem: ports (send/receive/block), allocation, yields. *)
let workload ?(processors = 2) ~level () =
  let m = mk ~processors ~level () in
  let port =
    K.Machine.create_port m ~capacity:2 ~discipline:K.Port.Fifo ()
  in
  ignore
    (K.Machine.spawn m ~name:"producer" (fun () ->
         for i = 1 to 8 do
           let msg = K.Machine.allocate_generic m ~data_length:16 () in
           K.Machine.write_word m msg ~offset:0 i;
           K.Machine.send m ~port ~msg
         done));
  ignore
    (K.Machine.spawn m ~name:"consumer" (fun () ->
         for _ = 1 to 8 do
           let msg = K.Machine.receive m ~port in
           ignore (K.Machine.read_word m msg ~offset:0);
           K.Machine.yield m
         done));
  let _ = run m in
  m

(* ---------------- Tracer rings ---------------- *)

let test_ring_overflow () =
  (* Capacity 4, 7 events: the ring keeps the newest 4 and counts the 3 it
     recycled. *)
  let t = Obs.Tracer.create ~capacity:4 ~level:Obs.Tracer.Events ~processors:1 () in
  for i = 1 to 7 do
    Obs.Tracer.emit t ~ts_ns:(i * 10) ~cpu:0 ~a:i Obs.Event.Yield
  done;
  Alcotest.(check int) "emitted" 7 (Obs.Tracer.emitted t);
  Alcotest.(check int) "retained" 4 (Obs.Tracer.retained t);
  Alcotest.(check int) "dropped" 3 (Obs.Tracer.dropped t);
  Alcotest.(check int) "dropped on cpu 0" 3 (Obs.Tracer.dropped_on t ~cpu:0);
  let events = Obs.Tracer.events t in
  Alcotest.(check (list int)) "oldest three recycled" [ 3; 4; 5; 6 ]
    (List.map (fun e -> e.Obs.Event.seq) events);
  Alcotest.(check (list int)) "payloads survive" [ 4; 5; 6; 7 ]
    (List.map (fun e -> e.Obs.Event.a) events)

let test_rings_are_per_processor () =
  let t = Obs.Tracer.create ~capacity:2 ~level:Obs.Tracer.Events ~processors:2 () in
  (* Overflow cpu 0 only; cpu 1 and the boot ring (-1) are untouched. *)
  for i = 1 to 5 do
    Obs.Tracer.emit t ~ts_ns:i ~cpu:0 Obs.Event.Yield
  done;
  Obs.Tracer.emit t ~ts_ns:6 ~cpu:1 Obs.Event.Yield;
  Obs.Tracer.emit t ~ts_ns:7 ~cpu:(-1) Obs.Event.Spawn;
  Alcotest.(check int) "cpu 0 dropped" 3 (Obs.Tracer.dropped_on t ~cpu:0);
  Alcotest.(check int) "cpu 1 kept all" 0 (Obs.Tracer.dropped_on t ~cpu:1);
  Alcotest.(check int) "boot ring kept all" 0 (Obs.Tracer.dropped_on t ~cpu:(-1));
  Alcotest.(check int) "retained across rings" 4 (Obs.Tracer.retained t)

let test_off_level_is_inert () =
  let t = Obs.Tracer.create ~level:Obs.Tracer.Off ~processors:1 () in
  Obs.Tracer.emit t ~ts_ns:1 ~cpu:0 ~name:"ghost" Obs.Event.Spawn;
  Alcotest.(check int) "nothing emitted" 0 (Obs.Tracer.emitted t);
  Alcotest.(check int) "nothing retained" 0 (Obs.Tracer.retained t)

let test_kind_codes_roundtrip () =
  (* The packed rings store kinds as dense ints; the mapping must be a
     bijection over the full range. *)
  for i = 0 to Obs.Event.kind_count - 1 do
    Alcotest.(check int) "roundtrip"
      i
      (Obs.Event.kind_to_int (Obs.Event.kind_of_int i))
  done;
  Alcotest.check_raises "out of range"
    (Invalid_argument
       (Printf.sprintf "Event.kind_of_int: %d" Obs.Event.kind_count))
    (fun () -> ignore (Obs.Event.kind_of_int Obs.Event.kind_count))

(* [kind_of_int] and [kind_to_string] read one declaration-order table
   while [kind_to_int] is a match: the three must agree on every kind,
   and each kind must print under its own name, so a name maps back to
   exactly one code. *)
let test_kind_tables_agree () =
  let names = Hashtbl.create Obs.Event.kind_count in
  for i = 0 to Obs.Event.kind_count - 1 do
    let k = Obs.Event.kind_of_int i in
    Alcotest.(check int) "code roundtrip" i (Obs.Event.kind_to_int k);
    let name = Obs.Event.kind_to_string k in
    Alcotest.(check bool) (name ^ " named") true (name <> "");
    (match Hashtbl.find_opt names name with
    | Some j ->
      Alcotest.failf "codes %d and %d both print as %S" j i name
    | None -> Hashtbl.add names name i)
  done;
  Alcotest.check_raises "negative code"
    (Invalid_argument "Event.kind_of_int: -1")
    (fun () -> ignore (Obs.Event.kind_of_int (-1)))

let test_subsystem_filter () =
  let t = Obs.Tracer.create ~level:Obs.Tracer.Events ~processors:1 () in
  (* Keep only the port subsystem: process events are skipped before any
     interning or ring store, and [wants] reports the mask so emitters
     can skip timestamp computation too. *)
  Obs.Tracer.set_filter t ~keep:(Some [ "port" ]);
  Alcotest.(check bool) "wants port" true
    (Obs.Tracer.wants t ~kind_code:(Obs.Event.kind_to_int Obs.Event.Send));
  Alcotest.(check bool) "rejects proc" false
    (Obs.Tracer.wants t ~kind_code:(Obs.Event.kind_to_int Obs.Event.Spawn));
  Obs.Tracer.emit t ~ts_ns:1 ~cpu:0 ~name:"p" Obs.Event.Spawn;
  Obs.Tracer.emit t ~ts_ns:2 ~cpu:0 ~name:"q" Obs.Event.Send;
  Alcotest.(check int) "only port event stored" 1 (Obs.Tracer.emitted t);
  (match Obs.Tracer.events t with
  | [ e ] -> Alcotest.(check string) "kept the send" "send"
      (Obs.Event.kind_to_string e.Obs.Event.kind)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  (* None restores the all-pass mask. *)
  Obs.Tracer.set_filter t ~keep:None;
  Obs.Tracer.emit t ~ts_ns:3 ~cpu:0 ~name:"r" Obs.Event.Spawn;
  Alcotest.(check int) "unfiltered again" 2 (Obs.Tracer.emitted t);
  (* Unknown subsystem names are refused. *)
  Alcotest.check_raises "bad subsystem"
    (Invalid_argument "Tracer.set_filter: subsystem \"nope\"") (fun () ->
      Obs.Tracer.set_filter t ~keep:(Some [ "nope" ]));
  (* Off level wins over any mask. *)
  let off = Obs.Tracer.create ~level:Obs.Tracer.Off ~processors:1 () in
  Alcotest.(check bool) "off never wants" false
    (Obs.Tracer.wants off ~kind_code:(Obs.Event.kind_to_int Obs.Event.Send))

(* ---------------- Determinism ---------------- *)

let test_event_stream_determinism () =
  let trace () =
    let m = workload ~level:Obs.Tracer.Events () in
    ( List.map Obs.Event.to_string (K.Machine.events m),
      Obs.Jout.to_string (Obs.Metrics.to_json (K.Machine.metrics m)) )
  in
  let events_a, metrics_a = trace () in
  let events_b, metrics_b = trace () in
  Alcotest.(check bool) "stream is non-trivial" true
    (List.length events_a > 20);
  Alcotest.(check (list string)) "identical event streams" events_a events_b;
  Alcotest.(check string) "identical metrics JSON" metrics_a metrics_b

(* ---------------- Chrome trace export ---------------- *)

let test_chrome_export_structure () =
  let m = workload ~level:Obs.Tracer.Events () in
  let events = K.Machine.events m in
  let kinds =
    List.sort_uniq compare (List.map (fun e -> e.Obs.Event.kind) events)
  in
  Alcotest.(check bool) "at least 5 event kinds observed" true
    (List.length kinds >= 5);
  let json = Obs.Export.chrome_trace ~processors:2 events in
  let s = Obs.Jout.to_string json in
  let contains sub =
    let n = String.length s and m' = String.length sub in
    let rec go i = i + m' <= n && (String.sub s i m' = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "top-level traceEvents array" true
    (contains "\"traceEvents\"");
  Alcotest.(check bool) "microsecond unit" true
    (contains "\"displayTimeUnit\"");
  Alcotest.(check bool) "per-processor track names" true
    (contains "\"cpu0\"" && contains "\"cpu1\"" && contains "\"boot\"");
  Alcotest.(check bool) "port flow arrows bind send to receive" true
    (contains "\"ph\": \"s\"" && contains "\"ph\": \"f\"");
  (* Identical runs must export identical files. *)
  let m2 = workload ~level:Obs.Tracer.Events () in
  let s2 =
    Obs.Jout.to_string
      (Obs.Export.chrome_trace ~processors:2 (K.Machine.events m2))
  in
  Alcotest.(check string) "export is deterministic" s s2

(* ---------------- Metrics registry ---------------- *)

let test_metrics_registry () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter r "kernel.dispatches" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Obs.Metrics.counter_value c);
  Alcotest.(check bool) "find-or-create is stable" true
    (Obs.Metrics.counter r "kernel.dispatches" == c);
  let g = Obs.Metrics.gauge r "gc.phase" in
  Obs.Metrics.set g 2;
  Alcotest.(check int) "gauge" 2 (Obs.Metrics.gauge_value g);
  (* The one registry shape spans 10 .. 10^10: below lands in underflow,
     beyond in overflow, and neither is dropped from the count. *)
  let h = Obs.Metrics.log_histogram r "port.wait" in
  List.iter (Obs.Metrics.observe_log h) [ 100.0; 3_000.0; 1e11; 1.0 ];
  let s = h.Obs.Metrics.l_hist in
  Alcotest.(check int) "histogram overflow bucket" 1
    s.I432_util.Stats.lh_overflow;
  Alcotest.(check int) "histogram underflow bucket" 1
    s.I432_util.Stats.lh_underflow;
  Alcotest.(check int) "histogram counts every observation" 4
    s.I432_util.Stats.lh_count;
  Alcotest.(check bool) "lookup misses are None" true
    (Obs.Metrics.find_counter r "no.such" = None);
  (* Dumps are sorted by name, so JSON is deterministic. *)
  let names = List.map (fun c -> c.Obs.Metrics.c_name) (Obs.Metrics.counters r) in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names

let test_machine_metrics_populated () =
  let m = workload ~level:Obs.Tracer.Events () in
  let r = K.Machine.metrics m in
  let counter name =
    match Obs.Metrics.find_counter r name with
    | Some c -> Obs.Metrics.counter_value c
    | None -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check bool) "dispatches counted" true
    (counter "dispatch.dispatches" > 0);
  Alcotest.(check int) "sends counted" 8 (counter "port.sends");
  Alcotest.(check int) "receives counted" 8 (counter "port.receives")

(* The spooler shape behind [imax_ctl metrics]: three clients queue five
   jobs each on a spool port, a spooler forwards them to a two-slot
   printer port, and a low-priority batch job forces preemption.  Each
   kernel histogram must count exactly what its counter counts — a
   receive that meets a parked receiver is a wait of 0, not a gap. *)
let test_kernel_histograms_agree_with_counters () =
  let module Sys = Imax.System in
  let module Pm = Imax.Process_manager in
  let module Up = Imax.Untyped_ports in
  let config =
    {
      Sys.default_config with
      Sys.processors = 2;
      trace_level = Obs.Tracer.Events;
    }
  in
  let sys = Sys.boot ~config () in
  let m = Sys.machine sys and pm = Sys.process_manager sys in
  let spool = Up.create_port m ~message_count:8 () in
  let printer = Up.create_port m ~message_count:2 () in
  let clients = 3 and jobs = 5 in
  let total = clients * jobs in
  ignore
    (Pm.create_process pm ~name:"spooler" (fun () ->
         for _ = 1 to total do
           let job = Up.receive m ~prt:spool in
           K.Machine.compute m 2;
           Up.send m ~prt:printer ~msg:job
         done));
  ignore
    (Pm.create_process pm ~name:"printer" (fun () ->
         for _ = 1 to total do
           let job = Up.receive m ~prt:printer in
           K.Machine.compute m 10;
           ignore (K.Machine.read_word m job ~offset:0)
         done));
  for c = 1 to clients do
    ignore
      (Pm.create_process pm ~name:(Printf.sprintf "client%d" c) (fun () ->
           for j = 1 to jobs do
             let job = K.Machine.allocate_generic m ~data_length:16 () in
             K.Machine.write_word m job ~offset:0 ((c * 100) + j);
             Up.send m ~prt:spool ~msg:job;
             K.Machine.delay m ~ns:50_000
           done))
  done;
  ignore
    (Pm.create_process pm ~name:"batch" ~priority:4 (fun () ->
         for _ = 1 to 2 do
           K.Machine.compute m 12_000
         done));
  ignore (Sys.run sys);
  let r = K.Machine.metrics m in
  let counter name =
    match Obs.Metrics.find_counter r name with
    | Some c -> Obs.Metrics.counter_value c
    | None -> Alcotest.failf "missing counter %s" name
  in
  let hist name =
    match Obs.Metrics.find_log_histogram r name with
    | Some h -> h
    | None -> Alcotest.failf "missing histogram %s" name
  in
  Alcotest.(check int) "every receive observed" (2 * total)
    (counter "port.receives");
  List.iter
    (fun (h, c) ->
      let h = hist h in
      Alcotest.(check int)
        (Printf.sprintf "%s count = %s" h.Obs.Metrics.l_name c)
        (counter c) h.Obs.Metrics.l_hist.I432_util.Stats.lh_count;
      let q = Obs.Metrics.log_quantile h in
      Alcotest.(check bool)
        (h.Obs.Metrics.l_name ^ " p50 <= p99 <= p999")
        true
        (q 0.5 <= q 0.99 && q 0.99 <= q 0.999))
    [
      ("port.wait_ns", "port.receives");
      ("dispatch.latency_ns", "dispatch.dispatches");
      ("alloc.size_bytes", "sro.allocates");
    ]

(* ---------------- Snapshot extensions ---------------- *)

let test_snapshot_observability_fields () =
  let m = workload ~level:Obs.Tracer.Events () in
  let snap = K.Snapshot.capture m in
  Alcotest.(check string) "gc idle outside collections" "idle"
    snap.K.Snapshot.gc_phase;
  Alcotest.(check int) "emitted matches tracer"
    (Obs.Tracer.emitted (K.Machine.tracer m))
    snap.K.Snapshot.events_emitted;
  Alcotest.(check bool) "events retained" true
    (snap.K.Snapshot.events_retained > 0);
  (match snap.K.Snapshot.sros with
  | [] -> Alcotest.fail "expected at least the global SRO"
  | sro :: _ ->
    Alcotest.(check bool) "free-store stats present" true
      (sro.K.Snapshot.s_free_bytes > 0 && sro.K.Snapshot.s_region_count > 0));
  let rendered = K.Snapshot.render snap in
  Alcotest.(check bool) "render mentions events" true
    (String.length rendered > 0)

let suite =
  [
    ("tracer: ring overflow", `Quick, test_ring_overflow);
    ("tracer: per-processor rings", `Quick, test_rings_are_per_processor);
    ("tracer: off level inert", `Quick, test_off_level_is_inert);
    ("tracer: kind codes roundtrip", `Quick, test_kind_codes_roundtrip);
    ("event: kind tables agree", `Quick, test_kind_tables_agree);
    ("tracer: subsystem filter", `Quick, test_subsystem_filter);
    ("determinism: events and metrics", `Quick, test_event_stream_determinism);
    ("export: chrome trace", `Quick, test_chrome_export_structure);
    ("metrics: registry", `Quick, test_metrics_registry);
    ("metrics: machine instruments", `Quick, test_machine_metrics_populated);
    ( "metrics: kernel histograms agree with counters",
      `Quick,
      test_kernel_histograms_agree_with_counters );
    ("snapshot: observability fields", `Quick, test_snapshot_observability_fields);
  ]
