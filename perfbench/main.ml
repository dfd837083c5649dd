(* perfbench: run one named workload and print its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics, measured with tracing off.
   --trace 1 runs the workload twice, untraced then with kernel tracing
   at Events level and benchmark spans, each for half the seconds, and
   prints the per-layer metrics plus obs.trace_overhead (traced over
   untraced host_rps).  The last line of standard output is one JSON
   object; a failed output check prints correct=false with no metrics
   and exits 1. *)

open Perfbench
module M = Measure

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" Workloads.names
   ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      if !seed = None then usage ();
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      if !seconds = None then usage ();
      go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when List.mem w Workloads.names && secs > 0.0 ->
    (w, s, secs, t)
  | _ -> usage ()

let print_report workload (r : M.report) =
  List.iter (fun l -> Printf.printf "[%s] %s\n" workload l) (List.rev r.M.lines);
  List.iter
    (fun (name, _) -> Printf.printf "[%s] CHECK FAILED: %s\n" workload name)
    (M.failed_checks r)

(* Every name in [names], in that order, from [metrics]; a layer a
   workload does not exercise reports zero. *)
let ordered names (metrics : M.metric list) =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.M.m_name = name) metrics with
      | Some m -> m
      | None -> { M.m_name = name; m_value = 0.0; m_unit = unit_ })
    names

let () =
  let workload, seed, seconds, traced = parse Sys.argv in
  (* With the default pacing the major heap of serve peaks right at a
     growth step, so peak RSS was bimodal by seed (80 or 97 MB); a fixed,
     lower space_overhead keeps every workload's peak unimodal. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 80 };
  let run = Workloads.run workload in
  Printf.printf "[%s] seed %d, %.1f s, trace %b\n%!" workload seed seconds traced;
  List.iter (fun l -> Printf.printf "[%s] %s\n" workload l) (Workloads.paper_costs ());
  let correct, attempted, failed, metrics =
    if not traced then begin
      let r = run (M.ctx ~seed ~seconds ~traced:false ()) in
      print_report workload r;
      Printf.printf "[%s] virtual digest %s\n" workload (M.virtual_digest r);
      let missing =
        List.filter
          (fun (n, _) -> not (List.exists (fun m -> m.M.m_name = n) r.M.e2e))
          Workloads.end_to_end
      in
      List.iter (fun (n, _) -> Printf.printf "[%s] metric missing: %s\n" workload n) missing;
      (M.correct r && missing = [], r.M.attempted, r.M.failed,
       ordered Workloads.end_to_end r.M.e2e)
    end
    else begin
      let half = seconds /. 2.0 in
      let plain = run (M.ctx ~search:false ~seed ~seconds:half ~traced:false ()) in
      let ctx = M.ctx ~search:false ~seed ~seconds:half ~traced:true () in
      let r = run ctx in
      let rps x =
        match List.find_opt (fun m -> m.M.m_name = "host_rps") x.M.e2e with
        | Some m -> m.M.m_value
        | None -> nan
      in
      M.layer r "obs.trace_overhead" "ratio" (rps r /. rps plain);
      print_report workload r;
      List.iter
        (fun (name, n, total, self) ->
          Printf.printf "[%s] span %-32s n=%-7d total %.4f s  self %.4f s\n" workload
            name n total self)
        (Spans.summary ctx.M.spans);
      let path = M.scratch_file (Printf.sprintf "spans-%s.jsonl" workload) in
      Spans.write ctx.M.spans path;
      Printf.printf "[%s] spans written to %s\n" workload path;
      (M.correct r && M.correct plain, r.M.attempted, r.M.failed,
       ordered Workloads.per_layer r.M.layer)
    end
  in
  if correct then begin
    print_endline (M.result_json ~correct ~attempted ~failed metrics);
    exit 0
  end
  else begin
    print_endline (M.result_json ~correct ~attempted ~failed []);
    exit 1
  end
