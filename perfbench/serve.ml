(* The open-loop workloads on the traffic harness: [serve] (one 4-GDP
   machine) and [cluster] (a 3-node star on the parallel engine).  Both
   replay the same traffic shape — about 100 Poisson users with long
   sessions and the typical CPI mix — so kernel work is the same and a
   gain in the interconnect shows only on [cluster]. *)

module K = I432_kernel
module Obs = I432_obs
module Load = I432_load
module Net = I432_net
module M = Measure

type shape = Machine | Cluster

let users = 100

let nominal_rps = function Machine -> 15_000.0 | Cluster -> 8_000.0

(* p99 limit for goodput: ~10x the typical mix's 95.5 us mean service on
   the machine; the cluster's unloaded p50 is ~420 us. *)
let limit_ns = function Machine -> 1_000_000 | Cluster -> 2_000_000

(* Requests per user per batch, and the fixed batches whose virtual
   results are reported.  A cluster batch must stay well inside
   Cluster.run's default 100 000 rounds (10 s virtual): 100 users x 100
   requests at 8 000 rps span ~1.25 s. *)
let per_user shape ~small =
  match (shape, small) with
  | _, true -> 10
  | Machine, false -> 400
  | Cluster, false -> 100

let fixed_batches shape ~small =
  match (shape, small) with _, true -> 1 | Machine, false -> 5 | Cluster, false -> 4

let spec ~seed ~rate ~per_user =
  {
    Load.Arrival.seed;
    users;
    sessions = 1;
    requests_per_session = per_user;
    rate_rps = rate;
    pattern = Load.Arrival.Poisson;
    profile = Load.Mix.Typical;
  }

let cluster_nodes = 3

let run shape ~trace_level ~spec =
  match shape with
  | Machine ->
    Load.Loadgen.run_machine ~processors:4 ~workers:8 ~pumps:1 ~trace_level
      ~spec ()
  | Cluster ->
    Load.Loadgen.run_cluster ~nodes:cluster_nodes ~processors:2
      ~engine:(Net.Cluster.Par 2) ~trace_level ~spec ()

let processors shape = match shape with Machine -> 4 | Cluster -> 2 * cluster_nodes

(* Requests that arrived inside the middle 80% of the schedule, per
   virtual second of that window: the realized offered load, unbiased by
   the ragged ends of the per-user streams. *)
let steady_rps (reqs : Load.Arrival.request array) =
  let h = float_of_int (Load.Arrival.horizon_ns reqs) in
  let lo = 0.1 *. h and hi = 0.9 *. h in
  let n =
    Array.fold_left
      (fun acc (r : Load.Arrival.request) ->
        let at = float_of_int r.Load.Arrival.r_at_ns in
        if at >= lo && at < hi then acc + 1 else acc)
      0 reqs
  in
  if hi <= lo then 0.0 else float_of_int n /. ((hi -. lo) /. 1e9)

let completed_all (o : Load.Loadgen.outcome) =
  o.Load.Loadgen.o_completed = Array.length o.Load.Loadgen.o_requests

(* One goodput probe passes when every request completes, the last
   completion trails the last arrival by at most the latency limit (no
   backlog left to drain), and p99 is within the limit. *)
let probe_ok shape (o : Load.Loadgen.outcome) =
  let limit = float_of_int (limit_ns shape) in
  let drain =
    o.Load.Loadgen.o_last_done_ns
    - Load.Arrival.horizon_ns o.Load.Loadgen.o_requests
  in
  completed_all o
  && float_of_int drain <= limit
  && Load.Loadgen.quantile o 0.99 <= limit

(* Geometric bisection between a passing and a failing nominal rate until
   they are within 0.25% of each other — finer than any bound the
   benchmark sets on goodput. *)
let probe_per_user ~small = if small then 10 else 100

let goodput shape ~seed ~small =
  let per_user = probe_per_user ~small in
  let probe rate =
    probe_ok shape
      (run shape ~trace_level:Obs.Tracer.Off ~spec:(spec ~seed ~rate ~per_user))
  in
  let lo, hi =
    match shape with Machine -> (2_000.0, 64_000.0) | Cluster -> (2_000.0, 32_000.0)
  in
  if not (probe lo) then (0.0, 1)
  else if probe hi then (hi, 2)
  else
    let rec bisect lo hi n =
      if hi /. lo <= 1.0025 then (lo, n)
      else
        let mid = sqrt (lo *. hi) in
        if probe mid then bisect mid hi (n + 1) else bisect lo mid (n + 1)
    in
    bisect lo hi 2

(* Req_issue instant minus scheduled instant, for every issue event the
   trace rings still hold (they drop oldest first). *)
let issue_lags (o : Load.Loadgen.outcome) =
  let reqs = o.Load.Loadgen.o_requests in
  List.concat_map
    (fun (_, m) ->
      List.filter_map
        (fun (e : Obs.Event.t) ->
          if e.Obs.Event.kind = Obs.Event.Req_issue then
            Some (e.Obs.Event.ts_ns - reqs.(e.Obs.Event.a).Load.Arrival.r_at_ns)
          else None)
        (K.Machine.events m))
    o.Load.Loadgen.o_machines

let run_workload shape (c : M.ctx) (r : M.report) =
  let small = c.M.small in
  let per_user = per_user shape ~small in
  let rate = nominal_rps shape in
  let label = match shape with Machine -> "serve" | Cluster -> "cluster" in
  let fixed = fixed_batches shape ~small in
  (* Merged registry of the fixed batches: counters add, the latency
     histograms merge bucket-wise. *)
  let acc = Obs.Metrics.create () in
  let total = ref 0 and completed = ref 0 and steady = ref [] and offered = ref [] in
  let elapsed = ref 0 and lags = ref [] and rounds = ref 0 in
  let batch i =
    let sp = spec ~seed:(M.batch_seed c i) ~rate ~per_user in
    let reqs, setup_s =
      M.host_time (fun () ->
          Spans.with_span c.M.spans ~op:i "load.Arrival.generate" (fun () ->
              Load.Arrival.generate sp))
    in
    let o, timed_s =
      M.host_time (fun () ->
          Spans.with_span c.M.spans ~op:i ("load.Loadgen.run_" ^ label)
            (fun () -> run shape ~trace_level:(M.trace_level c) ~spec:sp))
    in
    if i < fixed then begin
      M.check r "schedule replayed as generated"
        (Load.Arrival.render reqs = Load.Arrival.render o.Load.Loadgen.o_requests);
      M.check r "no process left blocked" (o.Load.Loadgen.o_deadlocked = 0);
      total := !total + Array.length reqs;
      completed := !completed + o.Load.Loadgen.o_completed;
      steady := steady_rps reqs :: !steady;
      offered := Load.Arrival.offered_rps reqs :: !offered;
      elapsed := !elapsed + o.Load.Loadgen.o_last_done_ns;
      Obs.Metrics.merge_into ~dst:acc ~src:o.Load.Loadgen.o_metrics;
      if c.M.traced then lags := issue_lags o @ !lags;
      if c.M.traced && shape = Cluster then begin
        let clock =
          List.fold_left
            (fun m (_, mc) -> max m (K.Machine.now mc))
            0 o.Load.Loadgen.o_machines
        in
        rounds := !rounds + ((clock + 99_999) / 100_000)
      end
    end;
    { M.b_ops = Array.length reqs; b_setup_s = setup_s; b_timed_s = timed_s }
  in
  let timed = M.timed_batches c ~min_batches:fixed batch in
  let fixed_host = M.fixed_host_s timed fixed in
  (* Requests stranded by Cluster.run's round limit, or otherwise never
     retired, count as failed. *)
  r.M.attempted <- !total;
  r.M.failed <- !total - !completed;
  M.host_metrics r timed;
  let lh =
    match Obs.Metrics.find_log_histogram acc "load.latency_ns" with
    | Some h -> h
    | None -> Obs.Metrics.log_histogram acc "load.latency_ns"
  in
  M.latency_metrics r ~quantile:(Obs.Metrics.log_quantile lh)
    ~samples:lh.Obs.Metrics.l_hist.I432_util.Stats.lh_count;
  M.e2e r "ok_ratio" "ratio" (M.ratio !completed !total);
  if c.M.search then begin
    let g, probes = goodput shape ~seed:c.M.seed ~small in
    M.e2e r "goodput_rps" "1/s" g;
    M.line r "goodput: %.0f rps nominal at p99 <= %d us, %d probes of %d requests"
      g (limit_ns shape / 1000) probes (users * probe_per_user ~small)
  end;
  M.line r "offered: %.0f rps nominal, %.0f rps realized over the steady window"
    rate (M.median !steady);
  M.line r "known defect: Arrival.offered_rps reads %.0f rps (requests over the last \
            arrival instant, so the ragged end of the per-user streams counts)"
    (M.median !offered);
  M.line r "requests: %d attempted, %d completed, %d stranded%s" !total !completed
    (!total - !completed)
    (match shape with
    | Cluster -> " (known defect: Loadgen.run_cluster stops at Cluster.run's default \
                  100 000 rounds, 10 s virtual, and strands later requests)"
    | Machine -> "");
  M.digest r (M.counters_rendering acc);
  M.digest r
    (String.concat " "
       (Array.to_list (Array.map string_of_int lh.Obs.Metrics.l_hist.I432_util.Stats.lh_counts)));
  M.layer r "load.generate_s" "s"
    (M.median (Spans.durations c.M.spans "load.Arrival.generate"));
  (let a = Array.of_list !lags in
   Array.sort compare a;
   M.layer r "load.issue_lag_us_p99" "us" (M.quantile_sorted a 0.99 /. 1e3);
   M.line r "issue lag: %d samples held by the trace rings" (Array.length a));
  M.registry_layers r acc ~processors:(processors shape) ~elapsed_ns:!elapsed
    ~ops:!total ~host_s:fixed_host;
  M.layer r "net.rounds" "count" (float_of_int !rounds);
  M.layer r "net.host_us_per_round" "us"
    (if !rounds = 0 then 0.0 else fixed_host *. 1e6 /. float_of_int !rounds)
