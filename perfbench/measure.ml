(* Shared measurement plumbing: the run context, exact quantiles, the
   timed batch loop, peak RSS, checks, and the result line. *)

module K = I432_kernel
module Obs = I432_obs

type ctx = {
  seed : int;
  seconds : float;  (** host seconds the timed phase runs for *)
  traced : bool;  (** kernel tracing at Events level plus benchmark spans *)
  search : bool;  (** run the goodput search (untimed, virtual) *)
  small : bool;  (** test size: a fraction of the work, same code paths *)
  spans : Spans.t;
}

let ctx ?(small = false) ?(search = true) ~seed ~seconds ~traced () =
  { seed; seconds; traced; search; small; spans = Spans.create ~enabled:traced }

let trace_level c = if c.traced then Obs.Tracer.Events else Obs.Tracer.Off

(* Batch [i]'s seed: distinct per batch, a pure function of the run seed. *)
let batch_seed c i = (c.seed * 1_000_003) + (i * 7_919) + 1

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank quantile of a sorted int array, [q] in [0, 1]. *)
let quantile_sorted (a : int array) q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    float_of_int a.(max 0 (min (n - 1) (rank - 1)))

(* ------------------------------------------------------------------ *)
(* Host resources                                                      *)
(* ------------------------------------------------------------------ *)

(* Peak resident set of this process (VmHWM), MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> loop ()
        | exception End_of_file -> nan
      in
      loop ())

let host_time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Scratch files (store journals, span dumps) stay inside the checkout,
   under the build directory that .gitignore already covers. *)
let scratch_dir = Filename.concat "_build" "perfbench-scratch"

let rec mkdir_p dir =
  if not (dir = "" || dir = "." || dir = "/" || Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* Remove a journal and its compaction temporary. *)
let remove_file p =
  List.iter (fun q -> if Sys.file_exists q then Sys.remove q) [ p; p ^ ".tmp" ]

(* A fresh path in the scratch directory. *)
let scratch_file name =
  mkdir_p scratch_dir;
  let p = Filename.concat scratch_dir name in
  remove_file p;
  p

(* ------------------------------------------------------------------ *)
(* Timed batches                                                       *)
(* ------------------------------------------------------------------ *)

type batch = {
  b_ops : int;  (** operations attempted *)
  b_setup_s : float;  (** host seconds before the batch's timed phase *)
  b_timed_s : float;  (** host seconds of the timed phase *)
}

(* Host speed drifts by tens of percent within minutes on a shared host,
   and a fixed stdlib-only loop slows down in step with the program.  So
   every batch is bracketed by runs of this loop, and its host times are
   rescaled to a host that runs the loop in [reference_nominal_s]: a
   change to the repository's code moves the rescaled figures, a change
   in host speed mostly does not.  The loop allocates and hashes like the
   simulator does; it uses nothing from the repository. *)
let reference_nominal_s = 0.05

let reference_loop () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for k = 1 to 200_000 do
    Hashtbl.replace h (k land 4095) (List.init 3 (fun x -> x + k));
    match Hashtbl.find_opt h ((k * 7) land 4095) with
    | Some (x :: _) -> acc := !acc + x
    | _ -> ()
  done;
  Sys.opaque_identity !acc

(* Compact the heap (every batch starts from the same heap state), then
   time the reference loop. *)
let reference_s () =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  ignore (reference_loop ());
  Unix.gettimeofday () -. t0

(* Run [batch i] for i = 0, 1, ... until [min_batches] have run and the
   host time spent in timed phases reaches [seconds] (unscaled).  The first
   [min_batches] are a fixed amount of work, so virtual-time results
   taken from them repeat exactly for a seed; the rest only add host-time
   samples.  Returned times are rescaled by the reference loop timed
   before and after each batch.  Peak RSS is read once the fixed batches
   are done, so it too covers a fixed amount of work. *)
type timed = { batches : batch list; fixed_peak_rss_mb : float }

let timed_batches (c : ctx) ~min_batches (batch : int -> batch) =
  let peak = ref nan in
  let rec loop i spent before acc =
    if i = min_batches then peak := peak_rss_mb ();
    if i >= min_batches && spent >= c.seconds then
      { batches = List.rev acc; fixed_peak_rss_mb = !peak }
    else begin
      let b = Spans.with_span c.spans ~op:i "batch" (fun () -> batch i) in
      let after = reference_s () in
      let scale = reference_nominal_s /. ((before +. after) /. 2.0) in
      let scaled =
        { b with b_setup_s = b.b_setup_s *. scale; b_timed_s = b.b_timed_s *. scale }
      in
      loop (i + 1) (spent +. b.b_timed_s) after (scaled :: acc)
    end
  in
  loop 0 0.0 (reference_s ()) []

(* A copy of a registry's current contents, taken before probes that
   would add to it. *)
let snapshot metrics =
  let copy = Obs.Metrics.create () in
  Obs.Metrics.merge_into ~dst:copy ~src:metrics;
  copy

(* Rescaled host seconds of the first [n] (fixed) batches' timed phases. *)
let fixed_host_s t n =
  List.fold_left ( +. ) 0.0
    (List.filteri (fun i _ -> i < n) (List.map (fun b -> b.b_timed_s) t.batches))

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

type report = {
  mutable checks : (string * bool) list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable e2e : metric list;  (** newest first *)
  mutable layer : metric list;  (** newest first *)
  mutable digest_parts : string list;  (** newest first *)
  mutable lines : string list;  (** newest first; human-readable notes *)
}

let report () =
  {
    checks = [];
    attempted = 0;
    failed = 0;
    e2e = [];
    layer = [];
    digest_parts = [];
    lines = [];
  }

let check r name ok = r.checks <- (name, ok) :: r.checks
let line r fmt = Printf.ksprintf (fun s -> r.lines <- s :: r.lines) fmt
let e2e r name unit_ v = r.e2e <- { m_name = name; m_value = v; m_unit = unit_ } :: r.e2e

let layer r name unit_ v =
  r.layer <- { m_name = name; m_value = v; m_unit = unit_ } :: r.layer

let digest r part = r.digest_parts <- part :: r.digest_parts
let correct r = List.for_all snd r.checks
let failed_checks r = List.rev (List.filter (fun (_, ok) -> not ok) r.checks)

(* Hex digest of every virtual-time result the workload recorded. *)
let virtual_digest r =
  Digest.to_hex (Digest.string (String.concat "\n" (List.rev r.digest_parts)))

let counter metrics name =
  match Obs.Metrics.find_counter metrics name with
  | Some c -> Obs.Metrics.counter_value c
  | None -> 0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Canonical rendering of a registry's counters, for digests. *)
let counters_rendering metrics =
  String.concat ","
    (List.map
       (fun c ->
         Printf.sprintf "%s=%d" c.Obs.Metrics.c_name (Obs.Metrics.counter_value c))
       (Obs.Metrics.counters metrics))

(* setup_s: median set-up time over the batches; host_rps: median of the
   batches' operations per timed host second; peak_rss_mb after the fixed
   batches. *)
let host_metrics r { batches; fixed_peak_rss_mb } =
  e2e r "peak_rss_mb" "MB" fixed_peak_rss_mb;
  e2e r "setup_s" "s" (median (List.map (fun b -> b.b_setup_s) batches));
  e2e r "host_rps" "1/s"
    (median
       (List.map (fun b -> float_of_int b.b_ops /. b.b_timed_s) batches));
  line r "host: %d batches, %.3f s timed (rescaled to the reference host)"
    (List.length batches)
    (List.fold_left (fun acc b -> acc +. b.b_timed_s) 0.0 batches)

(* p50/p99/p999 in virtual us from [quantile] (ns), with the sample count
   and how many samples lie beyond each percentile. *)
let latency_metrics r ~quantile ~samples =
  List.iter
    (fun (name, q) ->
      let v = quantile q /. 1e3 in
      e2e r name "us" v;
      line r "%s = %.3f us (n=%d, %d beyond)" name v samples
        (int_of_float (float_of_int samples *. (1.0 -. q))))
    [ ("p50_us", 0.5); ("p99_us", 0.99); ("p999_us", 0.999) ];
  check r "latency samples present" (samples > 0);
  check r "p50 <= p99 <= p999"
    (quantile 0.5 <= quantile 0.99 && quantile 0.99 <= quantile 0.999)

(* Latency metrics over integer ns samples, through the same estimator
   the traffic harness uses (Stats.log_hist: 16 buckets per decade,
   geometric interpolation inside a bucket), so every workload's
   percentiles are computed alike. *)
let latency_metrics_of r samples =
  let h = Obs.Metrics.log_histogram (Obs.Metrics.create ()) "latency_ns" in
  List.iter (fun ns -> Obs.Metrics.observe_log h (float_of_int ns)) samples;
  latency_metrics r ~quantile:(Obs.Metrics.log_quantile h)
    ~samples:(List.length samples)

(* Per-layer counts read from a (merged) program registry after the
   run.  [ops] operations ran on [processors] GDPs for [elapsed_ns] of
   virtual time in [host_s] host seconds. *)
let registry_layers r acc ~processors ~elapsed_ns ~ops ~host_s =
  let cnt = counter acc in
  let count name v = layer r name "count" (float_of_int v) in
  let dispatches = cnt "dispatch.dispatches" in
  count "kernel.dispatches" dispatches;
  count "kernel.preemptions" (cnt "dispatch.preemptions");
  count "kernel.port_sends" (cnt "port.sends");
  count "kernel.receive_blocks" (cnt "port.receive_blocks");
  count "kernel.send_blocks" (cnt "port.send_blocks");
  layer r "kernel.busy_ratio" "ratio"
    (ratio (cnt "machine.charged_ns") (processors * elapsed_ns));
  layer r "kernel.host_ns_per_dispatch" "ns"
    (if dispatches = 0 then 0.0 else host_s *. 1e9 /. float_of_int dispatches);
  let tx = cnt "net.frames_tx" in
  count "net.frames_tx" tx;
  count "net.frames_rx" (cnt "net.frames_rx");
  count "net.retransmits" (cnt "net.retransmits");
  layer r "net.retx_ratio" "ratio" (ratio (cnt "net.retransmits") tx);
  layer r "net.frames_per_request" "ratio" (ratio tx ops);
  count "vm.faults" (cnt "swap.faults");
  count "vm.swap_ins" (cnt "swap.ins");
  count "vm.swap_outs" (cnt "swap.outs");
  layer r "vm.clean_ratio" "ratio"
    (ratio (cnt "swap.clean_evictions") (cnt "swap.clean_evictions" + cnt "swap.outs"));
  let commits = cnt "txn.commits" and conflicts = cnt "txn.conflicts" in
  count "txn.commits" commits;
  count "txn.conflicts" conflicts;
  count "txn.retries" (cnt "txn.retries");
  count "txn.aborts" (cnt "txn.aborts");
  layer r "txn.commit_ratio" "ratio" (ratio commits (commits + conflicts));
  count "arch.sro_allocates" (cnt "sro.allocates");
  count "arch.alloc_retries" (cnt "sro.alloc_retries");
  let marked = cnt "gc.marked" and swept = cnt "gc.swept" in
  count "gc.cycles" (cnt "gc.cycles");
  count "gc.marked" marked;
  count "gc.swept" swept;
  layer r "gc.swept_ratio" "ratio" (ratio swept (marked + swept))

(* Store counters from the [Store.stats] of every store a run used. *)
let store_layers r stats =
  let appends, syncs, compactions, bytes_written =
    List.fold_left
      (fun (a, s, c, w) (a', s', c', w', _) -> (a + a', s + s', c + c', w + w'))
      (0, 0, 0, 0) stats
  in
  let count name v = layer r name "count" (float_of_int v) in
  count "store.appends" appends;
  count "store.syncs" syncs;
  count "store.bytes_written" bytes_written;
  count "store.compactions" compactions;
  layer r "store.appends_per_sync" "ratio" (ratio appends syncs)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
             (json_number m.m_value) m.m_unit)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body
