(* [swap]: an open loop with the memory-bound mix on a System running
   Swapping_lru over a store-backed swap device.  The object population
   sits in a RAM envelope a quarter of its size, and every request makes
   verified touches of random objects, so the vm fault path and the
   store's blob reads and writes dominate. *)

module K = I432_kernel
module Obs = I432_obs
module Load = I432_load
module St = I432_store.Store
module U = I432_util
module System = Imax.System
module M = Measure

let object_bytes = 32
let objects ~small = if small then 1_000 else 10_000
let touches = 4  (* per request *)
let users = 64
let rate_rps = 250.0
let per_user ~small = if small then 2 else 40
let fixed_batches ~small = if small then 1 else 5
let probe_touches = 1_000
let processors = 4

let spec ~seed ~small =
  {
    Load.Arrival.seed;
    users;
    sessions = 1;
    requests_per_session = per_user ~small;
    rate_rps;
    pattern = Load.Arrival.Poisson;
    profile = Load.Mix.Memory_bound;
  }

type batch_result = {
  latencies : int list;
  requests : int;
  completed : int;
  errors : int;  (** reads that did not return the written payload *)
  over_envelope : int;
      (** requests that ended with residency above the envelope: a swap-in
          charges the processor before it enforces the envelope, so a
          preemption there leaves the in-flight segment resident *)
  over_in_flight : int;
      (** requests that ended with residency above the envelope plus one
          in-flight segment per processor *)
  over_at_halt : bool;
  touched : int;
  elapsed_ns : int;
  metrics : Obs.Metrics.t;
  store_stats : int * int * int * int * int;
}

(* Boot, populate and run one batch.  Returns the result, set-up host
   seconds (store open, boot, population, schedule) and timed host
   seconds (the machine run). *)
let batch (c : M.ctx) ~small i =
  let sp = c.M.spans in
  let seed = M.batch_seed c i in
  let n = objects ~small in
  let ram_bytes = n * object_bytes / 4 in
  let t0 = Unix.gettimeofday () in
  let journal = M.scratch_file (Printf.sprintf "swap-%d.journal" i) in
  let store =
    Spans.with_span sp ~op:i "store.Store.open_" (fun () ->
        St.open_ ~sync_every:1024 ~compact_interval_ns:1_000_000
          ~min_garbage_bytes:(max 4096 (ram_bytes / 2))
          journal)
  in
  let heap_bytes = ram_bytes + max ram_bytes (1 lsl 16) in
  let sys =
    Spans.with_span sp ~op:i "core.System.boot" (fun () ->
        System.boot
          ~config:
            {
              System.default_config with
              System.processors = processors;
              memory_manager = System.Swapping_lru;
              heap_bytes;
              memory_bytes = max (1 lsl 22) ((2 * heap_bytes) + (1 lsl 20));
              swap_ram_bytes = Some ram_bytes;
              swap_device = Some (I432_store.Swap_store.device store);
              trace_level = M.trace_level c;
            }
          ())
  in
  let m = System.machine sys in
  St.attach store m;
  let objs =
    Array.init n (fun k ->
        let o =
          Spans.with_span sp ~op:i "core.System.mm_allocate" (fun () ->
              System.mm_allocate sys ~data_length:object_bytes ~access_length:0
                ~otype:I432.Obj_type.Generic)
        in
        K.Machine.write_word m o ~offset:0 (k + 1);
        o)
  in
  let reqs =
    Spans.with_span sp ~op:i "load.Arrival.generate" (fun () ->
        Load.Arrival.generate (spec ~seed ~small))
  in
  let errors = ref 0 and over = ref 0 and over_in_flight = ref 0 and touched = ref 0 and completed = ref 0 in
  let lats = ref [] in
  let by_user = Array.make users [] in
  Array.iter
    (fun (r : Load.Arrival.request) ->
      by_user.(r.Load.Arrival.r_user) <- r :: by_user.(r.Load.Arrival.r_user))
    reqs;
  Array.iteri
    (fun u rs ->
      let rs = List.rev rs in
      let prng = U.Prng.create ~seed:(seed + (u * 7919)) in
      ignore
        (K.Machine.spawn m
           ~name:(Printf.sprintf "user%d" u)
           (fun () ->
             List.iter
               (fun (r : Load.Arrival.request) ->
                 let lag = r.Load.Arrival.r_at_ns - K.Machine.now m in
                 if lag > 0 then K.Machine.delay m ~ns:lag;
                 for _ = 1 to touches do
                   let k = U.Prng.int prng n in
                   let o = objs.(k) in
                   (* A preemption between touch and read can let another
                      user's fault-in evict [o]: touch again. *)
                   let rec read_back () =
                     System.mm_touch sys o;
                     match K.Machine.read_word m o ~offset:0 with
                     | v -> v
                     | exception I432.Fault.Fault (I432.Fault.Segment_swapped_out _) ->
                       read_back ()
                   in
                   if read_back () <> k + 1 then incr errors;
                   incr touched
                 done;
                 K.Machine.compute m
                   (Load.Mix.cycles (Load.Mix.of_code r.Load.Arrival.r_cls));
                 (match System.mm_resident_bytes sys with
                 | Some b when b > ram_bytes ->
                   incr over;
                   if b > ram_bytes + (processors * object_bytes) then
                     incr over_in_flight
                 | _ -> ());
                 lats := (K.Machine.now m - r.Load.Arrival.r_at_ns) :: !lats;
                 incr completed)
               rs)))
    by_user;
  let t1 = Unix.gettimeofday () in
  let report =
    Spans.with_span sp ~op:i "core.System.run" (fun () -> System.run sys)
  in
  let t2 = Unix.gettimeofday () in
  let metrics = M.snapshot (K.Machine.metrics m) in
  let over_at_halt =
    match System.mm_resident_bytes sys with Some b -> b > ram_bytes | None -> true
  in
  (* Host cost per System.mm_touch, probed from outside the run: inside
     a process body a span would also cover whatever other processes the
     discrete-event loop ran after a charge preempted this one. *)
  if Spans.enabled sp then begin
    let prng = U.Prng.create ~seed in
    for _ = 1 to probe_touches do
      let k = U.Prng.int prng n in
      Spans.with_span sp ~op:i "core.System.mm_touch" (fun () ->
          System.mm_touch sys objs.(k));
      if K.Machine.read_word m objs.(k) ~offset:0 <> k + 1 then incr errors
    done
  end;
  let store_stats = St.stats store in
  Spans.with_span sp ~op:i "store.Store.close" (fun () -> St.close store);
  M.remove_file journal;
  ( {
      latencies = !lats;
      requests = Array.length reqs;
      completed = !completed;
      errors = !errors;
      over_envelope = !over;
      over_in_flight = !over_in_flight;
      over_at_halt;
      touched = !touched;
      elapsed_ns = report.K.Machine.elapsed_ns;
      metrics;
      store_stats;
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
        if i < fixed then results := b :: !results;
        { M.b_ops = b.requests; b_setup_s = setup_s; b_timed_s = timed_s })
  in
  let results = List.rev !results in
  let sum f = List.fold_left (fun acc b -> acc + f b) 0 results in
  let requests = sum (fun b -> b.requests) and completed = sum (fun b -> b.completed) in
  let elapsed = sum (fun b -> b.elapsed_ns) and touched = sum (fun b -> b.touched) in
  r.M.attempted <- requests;
  r.M.failed <- requests - completed;
  M.check r "every swap read returns its written payload" (sum (fun b -> b.errors) = 0);
  M.check r "resident bytes within the envelope at halt"
    (not (List.exists (fun b -> b.over_at_halt) results));
  M.check r "resident bytes within the envelope plus in-flight swap-ins"
    (sum (fun b -> b.over_in_flight) = 0);
  M.line r "known defect: %d of %d requests ended with one in-flight segment over the envelope"
    (sum (fun b -> b.over_envelope)) requests;
  M.check r "every request completed" (completed = requests);
  M.host_metrics r timed;
  let lats = List.concat_map (fun b -> b.latencies) results in
  M.latency_metrics_of r lats;
  M.e2e r "ok_ratio" "ratio" (M.ratio completed requests);
  (* An open loop below saturation completes what it is offered; goodput
     here is the completion rate over the virtual run. *)
  M.e2e r "goodput_rps" "1/s" (float_of_int completed /. (float_of_int elapsed /. 1e9));
  M.line r "offered: %.0f rps nominal, %d users, %d touches per request, %d objects in a %d-byte envelope"
    rate_rps users touches (objects ~small) (objects ~small * object_bytes / 4);
  let acc = Obs.Metrics.create () in
  List.iter (fun b -> Obs.Metrics.merge_into ~dst:acc ~src:b.metrics) results;
  M.digest r (M.counters_rendering acc);
  M.digest r (String.concat " " (List.map string_of_int (List.sort compare lats)));
  let fixed_host = M.fixed_host_s timed fixed in
  M.registry_layers r acc ~processors ~elapsed_ns:elapsed ~ops:requests ~host_s:fixed_host;
  M.layer r "vm.fault_ratio" "ratio" (M.ratio (M.counter acc "swap.faults") touched);
  M.store_layers r (List.map (fun b -> b.store_stats) results);
  let spans = c.M.spans in
  let med name = M.median (Spans.durations spans name) in
  let touch_ns =
    Array.of_list
      (List.map
         (fun s -> int_of_float (s *. 1e9))
         (Spans.durations spans "core.System.mm_touch"))
  in
  Array.sort compare touch_ns;
  M.layer r "core.mm_touch_us_p50" "us" (M.quantile_sorted touch_ns 0.5 /. 1e3);
  M.layer r "core.mm_touch_us_p99" "us" (M.quantile_sorted touch_ns 0.99 /. 1e3);
  M.layer r "core.mm_alloc_us" "us" (med "core.System.mm_allocate" *. 1e6);
  M.layer r "store.open_s" "s" (med "store.Store.open_");
  M.layer r "store.close_s" "s" (med "store.Store.close");
  M.layer r "load.generate_s" "s" (med "load.Arrival.generate")
