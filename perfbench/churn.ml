(* [churn]: a closed loop on a 2-GDP machine in the shape of E8.  A
   rooted standing set of 10^4 objects is kept; one mutator replaces
   random slots with fresh 64-byte objects through allocate_retry, and a
   benchmark-owned process loops on Collector.cycle on the other GDP.
   The heap leaves little room beyond the standing set, so some
   allocations wait for reclaim.  The only workload where gc works:
   Loadgen and Banking boot bare machines, and swap keeps its objects
   in host arrays the collector cannot see. *)

module K = I432_kernel
module Obs = I432_obs
module G = I432_gc
module U = I432_util
module M = Measure

let fanout = 100  (* root -> fanout nodes -> fanout leaves each *)
let standing ~small = if small then 1_000 else fanout * fanout
let allocations ~small = if small then 2_000 else 100_000
let fixed_batches ~small = if small then 1 else 4
let object_bytes = 64
let heap_bytes ~small = if small then 1 lsl 18 else 2 * 1024 * 1024
let gc_probe_cycles = 3

(* allocate_retry's backoff doubles from 100 us: 8 retries wait up to
   ~51 ms of virtual time for the collector. *)
let max_retries = 8

type batch_result = {
  latencies : int list;  (** allocate_retry call to return, virtual ns *)
  attempted : int;
  failed : int;  (** allocations that still raised after their retries *)
  bad_stamps : int;  (** rooted objects that did not read back their stamp *)
  elapsed_ns : int;
  metrics : Obs.Metrics.t;
  gc_stats : G.Collector.stats;
}

let batch (c : M.ctx) ~small i =
  let sp = c.M.spans in
  let seed = M.batch_seed c i in
  let n = standing ~small in
  let t0 = Unix.gettimeofday () in
  let heap = heap_bytes ~small in
  let m =
    K.Machine.create
      ~config:
        {
          K.Machine.default_config with
          K.Machine.processors = 2;
          memory_bytes = heap + (1 lsl 20);
          global_heap_bytes = heap;
          trace_level = M.trace_level c;
        }
      ()
  in
  let table = K.Machine.table m in
  let sro = K.Machine.global_sro m in
  let node_count = (n + fanout - 1) / fanout in
  let root = K.Machine.allocate_generic m ~access_length:node_count () in
  K.Machine.add_root m root;
  let nodes =
    Array.init node_count (fun j ->
        let node = K.Machine.allocate_generic m ~access_length:fanout () in
        I432.Segment.store_access table root ~slot:j (Some node);
        node)
  in
  let stamps = Array.make n 0 in
  let place slot stamp o =
    K.Machine.write_word m o ~offset:0 stamp;
    I432.Segment.store_access table nodes.(slot / fanout) ~slot:(slot mod fanout) (Some o);
    stamps.(slot) <- stamp
  in
  for slot = 0 to n - 1 do
    place slot (slot + 1)
      (K.Machine.allocate_generic m ~data_length:object_bytes ~access_length:0 ())
  done;
  let collector = G.Collector.create m in
  let finished = ref false in
  let lats = ref [] and failed = ref 0 in
  let count = allocations ~small in
  ignore
    (K.Machine.spawn m ~name:"mutator" (fun () ->
         let prng = U.Prng.create ~seed in
         for k = 1 to count do
           let slot = U.Prng.int prng n in
           let start = K.Machine.now m in
           match
             Spans.with_span sp ~op:k "arch.Machine.allocate_retry" (fun () ->
                 K.Machine.allocate_retry m sro ~max_retries ~data_length:object_bytes
                   ~access_length:0 ~otype:I432.Obj_type.Generic ())
           with
           | o ->
             lats := (K.Machine.now m - start) :: !lats;
             place slot (n + k) o
           | exception I432.Fault.Fault (I432.Fault.Storage_exhausted _) ->
             incr failed
         done;
         finished := true));
  ignore
    (K.Machine.spawn m ~daemon:true ~name:"collector" (fun () ->
         while not !finished do
           ignore (G.Collector.cycle ~step:(fun () -> K.Machine.yield m) collector)
         done));
  let t1 = Unix.gettimeofday () in
  let report = Spans.with_span sp ~op:i "kernel.Machine.run" (fun () -> K.Machine.run m) in
  let t2 = Unix.gettimeofday () in
  let bad = ref 0 in
  Array.iteri
    (fun slot stamp ->
      match
        I432.Segment.load_access table nodes.(slot / fanout) ~slot:(slot mod fanout)
      with
      | Some o when K.Machine.read_word m o ~offset:0 = stamp -> ()
      | _ -> incr bad)
    stamps;
  (* Copied: the probe cycles below add to the live record and counters. *)
  let gc_stats =
    let s = G.Collector.stats collector in
    { s with G.Collector.cycles = s.G.Collector.cycles }
  in
  let metrics = M.snapshot (K.Machine.metrics m) in
  (* Host cost of one full cycle over the final heap, probed from outside
     the run: inside the collector process a span would also cover the
     mutator's host time whenever a charge preempted the collector. *)
  if Spans.enabled sp then
    for _ = 1 to gc_probe_cycles do
      Spans.with_span sp ~op:i "gc.Collector.cycle" (fun () ->
          ignore (G.Collector.cycle collector))
    done;
  ( {
      latencies = !lats;
      attempted = count;
      failed = !failed;
      bad_stamps = !bad;
      elapsed_ns = report.K.Machine.elapsed_ns;
      metrics;
      gc_stats;
    },
    t1 -. t0,
    t2 -. t1 )

let run_workload (c : M.ctx) (r : M.report) =
  let small = c.M.small in
  let fixed = fixed_batches ~small in
  let results = ref [] in
  let timed =
    M.timed_batches c ~min_batches:fixed (fun i ->
        let b, setup_s, timed_s = batch c ~small i in
        M.check r "every rooted object reads back its stamp" (b.bad_stamps = 0);
        if i < fixed then results := b :: !results;
        { M.b_ops = b.attempted; b_setup_s = setup_s; b_timed_s = timed_s })
  in
  let results = List.rev !results in
  let sum f = List.fold_left (fun acc b -> acc + f b) 0 results in
  let attempted = sum (fun b -> b.attempted) and failed = sum (fun b -> b.failed) in
  let elapsed = sum (fun b -> b.elapsed_ns) in
  r.M.attempted <- attempted;
  r.M.failed <- failed;
  M.host_metrics r timed;
  let lats = List.concat_map (fun b -> b.latencies) results in
  M.latency_metrics_of r lats;
  M.e2e r "ok_ratio" "ratio" (M.ratio (attempted - failed) attempted);
  M.e2e r "goodput_rps" "1/s"
    (float_of_int (attempted - failed) /. (float_of_int elapsed /. 1e9));
  M.line r "closed loop: 1 mutator, %d standing objects, %d-byte heap, %d allocations per run"
    (standing ~small) (heap_bytes ~small) (allocations ~small);
  M.line r "known defect: %d of %d allocations still raised Storage_exhausted after \
            %d retries; a larger heap does not remove them"
    failed attempted max_retries;
  let acc = Obs.Metrics.create () in
  List.iter (fun b -> Obs.Metrics.merge_into ~dst:acc ~src:b.metrics) results;
  M.digest r (M.counters_rendering acc);
  M.digest r (String.concat " " (List.map string_of_int lats));
  let fixed_host = M.fixed_host_s timed fixed in
  M.registry_layers r acc ~processors:2 ~elapsed_ns:elapsed ~ops:attempted
    ~host_s:fixed_host;
  M.layer r "gc.mark_ns" "ns" (float_of_int (sum (fun b -> b.gc_stats.G.Collector.mark_ns)));
  M.layer r "gc.sweep_ns" "ns" (float_of_int (sum (fun b -> b.gc_stats.G.Collector.sweep_ns)));
  M.layer r "gc.host_s" "s" (M.median (Spans.durations c.M.spans "gc.Collector.cycle"))
