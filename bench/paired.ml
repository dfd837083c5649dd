(* Paired-ratio host timing: the one harness discipline every
   host-overhead figure in this directory uses.

   Each trial times a base and a variant back to back and keeps their
   ratio: host-load drift hits both halves of a pair alike, so the ratio
   is far more stable than comparing two independent minima, and the
   median rejects trials where a GC pause or scheduler hiccup landed
   inside one half.  A major collection before *every* sample (the
   second of a pair would otherwise run against the first's garbage)
   and ABBA order alternation cancel position-in-pair bias — without
   both, a null test of this harness (the same workload on both sides)
   reads several percent instead of ~0. *)

(* Wall-clock ns of one run of [f], averaged over [batch] back-to-back
   runs to amortize jitter. *)
let time ~batch f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to batch do
    f ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int batch

type t = {
  ratio : float;  (* median over the trials of variant / base *)
  base_ns : float;  (* fastest base sample *)
  variant_ns : float;  (* fastest variant sample *)
}

(* One warm-up sample of each side, then [trials] ABBA pairs. *)
let measure ~trials ~batch ~base ~variant =
  ignore (time ~batch base);
  ignore (time ~batch variant);
  let best_base = ref infinity and best_variant = ref infinity in
  let sample f best =
    Gc.full_major ();
    let ns = time ~batch f in
    if ns < !best then best := ns;
    ns
  in
  let ratios =
    Array.init trials (fun i ->
        if i mod 2 = 0 then begin
          let b = sample base best_base in
          let v = sample variant best_variant in
          v /. b
        end
        else begin
          let v = sample variant best_variant in
          let b = sample base best_base in
          v /. b
        end)
  in
  Array.sort compare ratios;
  { ratio = ratios.(trials / 2); base_ns = !best_base; variant_ns = !best_variant }

(* The variant's cost over the base, in percent of the base. *)
let overhead_pct r = 100.0 *. (r.ratio -. 1.0)
