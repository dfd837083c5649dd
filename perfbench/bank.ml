(* [bank]: a closed loop of 8 tellers with no pacing over 16 accounts,
   with every account's history tracked into a journal.  Calls to
   Banking.run are chained with derived seeds because one call raises
   "Object_table: access part too large" at 24 000 transfers.  The txn
   validate/apply path and the append-only store writes do the work: the
   group-commit workload.

   Calls are 4 000 transfers, not 16 000, and only the first call's
   history is verified, because History.verify is quadratic in the
   journal (Journal.read_at reads to the end of the journal for every
   record): verifying one 16 000-transfer call takes ~20 s of host time,
   a 4 000-transfer call ~1.3 s. *)

module K = I432_kernel
module Obs = I432_obs
module St = I432_store.Store
module Txn = I432_txn
module M = Measure

(* fsync latency on a shared host swings by more than any usable bound
   between runs: with the store's default barrier every 8 appends, fsync
   is two thirds of bank's host time and host_rps ranged 8.1k-13.3k over
   ten runs; every 256 appends it was still ~20% and spread 9%.  A
   barrier every 4096 appends (two per call) leaves the append path's CPU
   cost; store.syncs and store.appends_per_sync report the cadence. *)
let sync_every = 4096

let accounts = 16
let tellers = 8
let transfers ~small = if small then 400 else 4_000
let fixed_batches ~small = if small then 1 else 48

type call = {
  res : Txn.Banking.result;
  kept : (Txn.History.t option * St.t * string) option;
      (** history, open store and journal path, kept for verification *)
  elapsed_ns : int;
  metrics : Obs.Metrics.t;
  store_stats : int * int * int * int * int;
}

(* One Banking.run call.  The store stays open and the history is kept
   when [keep] (for History.verify after the timed batches); otherwise
   the store is closed and its journal removed. *)
let call (c : M.ctx) ~small ~keep i =
  let sp = c.M.spans in
  let journal = M.scratch_file (Printf.sprintf "bank-%d.journal" i) in
  let store, setup_s =
    M.host_time (fun () ->
        Spans.with_span sp ~op:i "store.Store.open_" (fun () -> St.open_ ~sync_every journal))
  in
  let (m, history, res), timed_s =
    M.host_time (fun () ->
        Spans.with_span sp ~op:i "txn.Banking.run" (fun () ->
            Txn.Banking.run ~processors:2 ~workers:tellers ~pace_ns:0
              ~trace:c.M.traced ~history_store:store ~accounts
              ~transfers:(transfers ~small) ~seed:(M.batch_seed c i) ()))
  in
  let store_stats = St.stats store in
  let kept =
    if keep then Some (history, store, journal)
    else begin
      Spans.with_span sp ~op:i "store.Store.close" (fun () -> St.close store);
      M.remove_file journal;
      None
    end
  in
  ( {
      res;
      kept;
      elapsed_ns = K.Machine.now m;
      metrics = K.Machine.metrics m;
      store_stats;
    },
    setup_s,
    timed_s )

let run_workload (c : M.ctx) (r : M.report) =
  let small = c.M.small in
  let fixed = fixed_batches ~small in
  let results = ref [] in
  let timed =
    M.timed_batches c ~min_batches:fixed (fun i ->
        (* Every call is checked; the fixed ones are reported, and the
           first one's history is verified once the timed batches are
           done, so the verification's memory stays out of peak RSS. *)
        let b, setup_s, timed_s = call c ~small ~keep:(i = 0) i in
        let res = b.res in
        M.check r "balances conserved" (Txn.Banking.conserved res);
        M.check r "every committed transfer completes exactly once"
          (res.Txn.Banking.dup_completions = 0
          && res.Txn.Banking.completions = res.Txn.Banking.committed
          && res.Txn.Banking.committed + res.Txn.Banking.aborted
             = res.Txn.Banking.transfers);
        if i < fixed then results := b :: !results;
        { M.b_ops = res.Txn.Banking.transfers; b_setup_s = setup_s; b_timed_s = timed_s })
  in
  let results = List.rev !results in
  List.iter
    (fun b ->
      match b.kept with
      | None -> ()
      | Some (history, store, journal) ->
        let sp = c.M.spans in
        M.check r "History.verify passes for every account"
          (Spans.with_span sp "txn.History.verify" (fun () ->
               match history with
               | None -> false
               | Some h ->
                 List.for_all
                   (fun (name, _) -> Txn.History.verify h ~name)
                   (Txn.History.tracked h)));
        Spans.with_span sp "store.Store.close" (fun () -> St.close store);
        M.remove_file journal)
    results;
  let sum f = List.fold_left (fun acc b -> acc + f b) 0 results in
  let attempted = sum (fun b -> b.res.Txn.Banking.transfers) in
  let committed = sum (fun b -> b.res.Txn.Banking.committed) in
  let elapsed = sum (fun b -> b.elapsed_ns) in
  r.M.attempted <- attempted;
  r.M.failed <- attempted - committed;
  M.host_metrics r timed;
  M.latency_metrics_of r (List.concat_map (fun b -> b.res.Txn.Banking.latencies) results);
  M.e2e r "ok_ratio" "ratio" (M.ratio committed attempted);
  M.e2e r "goodput_rps" "1/s" (float_of_int committed /. (float_of_int elapsed /. 1e9));
  M.line r "closed loop: %d tellers, no pacing, %d accounts, %d transfers per Banking.run call"
    tellers accounts (transfers ~small);
  M.line r "known defect: calls are chained because one Banking.run call raises \
            'Object_table: access part too large' at 24 000 transfers";
  let acc = Obs.Metrics.create () in
  List.iter (fun b -> Obs.Metrics.merge_into ~dst:acc ~src:b.metrics) results;
  M.digest r (M.counters_rendering acc);
  List.iter
    (fun b ->
      M.digest r (Txn.Banking.result_to_string b.res);
      M.digest r
        (String.concat " "
           (Array.to_list (Array.map string_of_int b.res.Txn.Banking.balances)));
      M.digest r
        (String.concat " " (List.map string_of_int b.res.Txn.Banking.latencies)))
    results;
  let fixed_host = M.fixed_host_s timed fixed in
  M.registry_layers r acc ~processors:2 ~elapsed_ns:elapsed ~ops:attempted
    ~host_s:fixed_host;
  M.store_layers r (List.map (fun b -> b.store_stats) results);
  let med name = M.median (Spans.durations c.M.spans name) in
  M.layer r "store.open_s" "s" (med "store.Store.open_");
  M.layer r "store.close_s" "s" (med "store.Store.close");
  M.layer r "txn.verify_s" "s" (med "txn.History.verify")
