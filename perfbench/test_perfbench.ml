(* Small-size runs of every workload: the output checks pass, the
   virtual-time digest repeats on the same seed, and another seed gives
   another digest. *)

open Perfbench
module M = Measure

let run name ~seed =
  Workloads.run name (M.ctx ~small:true ~seed ~seconds:0.0 ~traced:false ())

let () =
  let failures = ref 0 in
  let expect name what ok =
    if not ok then begin
      incr failures;
      Printf.printf "FAIL %s: %s\n" name what
    end
  in
  List.iter
    (fun name ->
      let a = run name ~seed:1 and b = run name ~seed:1 and c = run name ~seed:2 in
      List.iter
        (fun (check, _) -> expect name ("check failed: " ^ check) false)
        (M.failed_checks a);
      expect name "no operations attempted" (a.M.attempted > 0);
      List.iter
        (fun (metric, _) ->
          expect name ("missing metric " ^ metric)
            (List.exists (fun m -> m.M.m_name = metric) a.M.e2e))
        Workloads.end_to_end;
      let da = M.virtual_digest a in
      expect name "digest differs on the same seed" (da = M.virtual_digest b);
      expect name "digest equal across seeds" (da <> M.virtual_digest c);
      Printf.printf "%-8s %s attempted=%d failed=%d\n" name da a.M.attempted a.M.failed)
    Workloads.names;
  if !failures > 0 then exit 1
