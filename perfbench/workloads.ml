(* The benchmark's workloads by name, and the metric names every run
   reports (a layer that does no work on a workload reports zero). *)

module M = Measure

let all =
  [
    ("serve", Serve.run_workload Serve.Machine);
    ("cluster", Serve.run_workload Serve.Cluster);
    ("swap", Swap.run_workload);
    ("bank", Bank.run_workload);
    ("churn", Churn.run_workload);
  ]

let names = List.map fst all

(* Run workload [name] in [ctx]. *)
let run name ctx =
  let r = M.report () in
  (List.assoc name all) ctx r;
  r

let end_to_end =
  [
    ("setup_s", "s");
    ("host_rps", "1/s");
    ("peak_rss_mb", "MB");
    ("p50_us", "us");
    ("p99_us", "us");
    ("p999_us", "us");
    ("goodput_rps", "1/s");
    ("ok_ratio", "ratio");
  ]

let per_layer =
  [
    ("load.generate_s", "s");
    ("load.issue_lag_us_p99", "us");
    ("kernel.dispatches", "count");
    ("kernel.preemptions", "count");
    ("kernel.port_sends", "count");
    ("kernel.receive_blocks", "count");
    ("kernel.send_blocks", "count");
    ("kernel.busy_ratio", "ratio");
    ("kernel.host_ns_per_dispatch", "ns");
    ("net.frames_tx", "count");
    ("net.frames_rx", "count");
    ("net.retransmits", "count");
    ("net.rounds", "count");
    ("net.retx_ratio", "ratio");
    ("net.frames_per_request", "ratio");
    ("net.host_us_per_round", "us");
    ("core.mm_touch_us_p50", "us");
    ("core.mm_touch_us_p99", "us");
    ("core.mm_alloc_us", "us");
    ("vm.faults", "count");
    ("vm.swap_ins", "count");
    ("vm.swap_outs", "count");
    ("vm.fault_ratio", "ratio");
    ("vm.clean_ratio", "ratio");
    ("store.appends", "count");
    ("store.syncs", "count");
    ("store.bytes_written", "count");
    ("store.compactions", "count");
    ("store.appends_per_sync", "ratio");
    ("store.open_s", "s");
    ("store.close_s", "s");
    ("txn.commits", "count");
    ("txn.conflicts", "count");
    ("txn.retries", "count");
    ("txn.aborts", "count");
    ("txn.commit_ratio", "ratio");
    ("txn.verify_s", "s");
    ("arch.sro_allocates", "count");
    ("arch.alloc_retries", "count");
    ("gc.host_s", "s");
    ("gc.cycles", "count");
    ("gc.marked", "count");
    ("gc.swept", "count");
    ("gc.swept_ratio", "ratio");
    ("gc.mark_ns", "ns");
    ("gc.sweep_ns", "ns");
    ("obs.trace_overhead", "ratio");
  ]

(* The virtual cost the model charges for the two operations the paper
   quotes, measured on a fresh machine: an inter-domain call and return
   (65 us) and an SRO allocation (80 us at 8 MHz). *)
let paper_costs () =
  let module K = I432_kernel in
  let calls = 1_000 in
  let per_call body =
    let m =
      K.Machine.create
        ~config:{ K.Machine.default_config with K.Machine.processors = 1; bus_alpha_per_mille = 0 }
        ()
    in
    let body = body m in
    let p = K.Machine.spawn m ~name:"probe" (fun () -> for _ = 1 to calls do body () done) in
    ignore (K.Machine.run m);
    let st = K.Machine.process_state m p in
    float_of_int (st.K.Process.cpu_ns - (K.Machine.timings m).I432.Timings.dispatch_ns)
    /. float_of_int calls /. 1e3
  in
  let domain_us =
    per_call (fun m ->
        let dom = K.Domain.create (K.Machine.table m) (K.Machine.global_sro m) ~name:"pkg" in
        fun () -> K.Machine.domain_call m dom (fun () -> ()))
  in
  let alloc_release_us =
    per_call (fun m ->
        let sro = K.Machine.global_sro m in
        fun () ->
          let a =
            K.Machine.allocate m sro ~data_length:64 ~access_length:0
              ~otype:I432.Obj_type.Generic
          in
          K.Machine.release m sro ~index:(I432.Access.index a))
  in
  let release_us =
    float_of_int (I432.Timings.default.I432.Timings.destroy_ns) /. 1e3
  in
  [
    Printf.sprintf "model: domain call+return %.1f us virtual (paper: 65 us)" domain_us;
    Printf.sprintf "model: SRO allocation %.1f us virtual (paper: 80 us)"
      (alloc_release_us -. release_us);
    "model: only these two costs are checked against the paper; the rest of \
     the timing model is unvalidated";
  ]
