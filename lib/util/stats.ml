(* Small statistics toolkit: Jain's fairness index for the benchmark
   harness, and the one histogram kind every metrics-registry histogram
   uses. *)

(* Jain's fairness index: (sum x)^2 / (n * sum x^2); 1.0 = perfectly fair. *)
let jain_fairness xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.jain_fairness: empty";
  let s = Array.fold_left ( +. ) 0.0 xs in
  let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
  if s2 = 0.0 then 1.0 else s *. s /. (float_of_int n *. s2)

(* ------------------------------------------------------------------ *)
(* Log-bucketed histograms                                             *)
(* ------------------------------------------------------------------ *)

(* A streaming geometric histogram: [per_decade] buckets per factor of 10,
   spanning [decades] decades upward from [lo].  Fixed-width buckets
   cannot resolve tail quantiles over a multi-decade range (a p999 four
   decades above p50 lands in one giant bucket); here every bucket has the
   same *relative* width 10^(1/per_decade), so quantile error is a bounded
   relative error everywhere in range.  Out-of-range values are not
   dropped: they land in the explicit underflow/overflow buckets, so the
   counts account for every finite observation.  NaNs are ignored (they
   order with nothing). *)
type log_hist = {
  lh_lo : float;  (* lower edge of bucket 0; > 0 *)
  lh_per_decade : int;
  lh_log_lo : float;  (* log10 lh_lo, cached for the observe path *)
  lh_counts : int array;  (* per_decade * decades buckets *)
  mutable lh_underflow : int;
  mutable lh_overflow : int;
  mutable lh_count : int;  (* finite observations, including under/overflow *)
  mutable lh_sum : float;
  mutable lh_min : float;
  mutable lh_max : float;
}

let log_hist_create ~per_decade ~lo ~decades () =
  if per_decade <= 0 then invalid_arg "Stats.log_hist_create: per_decade";
  if decades <= 0 then invalid_arg "Stats.log_hist_create: decades";
  if not (lo > 0.0) then invalid_arg "Stats.log_hist_create: lo";
  {
    lh_lo = lo;
    lh_per_decade = per_decade;
    lh_log_lo = log10 lo;
    lh_counts = Array.make (per_decade * decades) 0;
    lh_underflow = 0;
    lh_overflow = 0;
    lh_count = 0;
    lh_sum = 0.0;
    lh_min = infinity;
    lh_max = neg_infinity;
  }

let log_hist_observe h x =
  if not (Float.is_nan x) then begin
    h.lh_count <- h.lh_count + 1;
    h.lh_sum <- h.lh_sum +. x;
    if x < h.lh_min then h.lh_min <- x;
    if x > h.lh_max then h.lh_max <- x;
    if x < h.lh_lo then h.lh_underflow <- h.lh_underflow + 1
    else begin
      let buckets = Array.length h.lh_counts in
      let b =
        int_of_float
          (floor ((log10 x -. h.lh_log_lo) *. float_of_int h.lh_per_decade))
      in
      (* log10 can be an ulp off at an exact bucket edge; clamp low.  High
         side stays a genuine overflow. *)
      let b = if b < 0 then 0 else b in
      if b >= buckets then h.lh_overflow <- h.lh_overflow + 1
      else h.lh_counts.(b) <- h.lh_counts.(b) + 1
    end
  end

let log_hist_mean h =
  if h.lh_count = 0 then 0.0 else h.lh_sum /. float_of_int h.lh_count

(* Lower edge of bucket [b]. *)
let log_hist_edge h b =
  h.lh_lo *. (10.0 ** (float_of_int b /. float_of_int h.lh_per_decade))

(* Quantile estimate by cumulative bucket walk with geometric interpolation
   inside the landing bucket.  Underflow resolves to the observed minimum
   and overflow to the observed maximum (the only honest values there);
   in-range answers are clamped to [min, max] so q=0/q=1 are exact. *)
let log_hist_quantile h q =
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Stats.log_hist_quantile";
  if h.lh_count = 0 then 0.0
  else if q = 0.0 then h.lh_min
  else begin
    let target = q *. float_of_int h.lh_count in
    let target = if target < 1.0 then 1.0 else target in
    let clamp x =
      if x < h.lh_min then h.lh_min
      else if x > h.lh_max then h.lh_max
      else x
    in
    if float_of_int h.lh_underflow >= target then h.lh_min
    else begin
      let cum = ref (float_of_int h.lh_underflow) in
      let buckets = Array.length h.lh_counts in
      let result = ref None in
      let b = ref 0 in
      while !result = None && !b < buckets do
        let c = h.lh_counts.(!b) in
        if c > 0 && !cum +. float_of_int c >= target then begin
          let frac = (target -. !cum) /. float_of_int c in
          let lo_edge = log_hist_edge h !b in
          let step = 10.0 ** (frac /. float_of_int h.lh_per_decade) in
          result := Some (clamp (lo_edge *. step))
        end
        else begin
          cum := !cum +. float_of_int c;
          incr b
        end
      done;
      match !result with Some v -> v | None -> h.lh_max
    end
  end

(* Fold [src] into [dst].  Requires identical shape, so per-node
   histograms created from the same instrumentation site merge without
   rebinning.  Sum order is dst-then-src, so merging a name-sorted
   sequence of registries is deterministic. *)
let log_hist_merge_into ~dst ~src =
  if
    Array.length dst.lh_counts <> Array.length src.lh_counts
    || dst.lh_lo <> src.lh_lo || dst.lh_per_decade <> src.lh_per_decade
  then invalid_arg "Stats.log_hist_merge_into: shape mismatch";
  Array.iteri
    (fun i c -> dst.lh_counts.(i) <- dst.lh_counts.(i) + c)
    src.lh_counts;
  dst.lh_underflow <- dst.lh_underflow + src.lh_underflow;
  dst.lh_overflow <- dst.lh_overflow + src.lh_overflow;
  dst.lh_count <- dst.lh_count + src.lh_count;
  dst.lh_sum <- dst.lh_sum +. src.lh_sum;
  if src.lh_min < dst.lh_min then dst.lh_min <- src.lh_min;
  if src.lh_max > dst.lh_max then dst.lh_max <- src.lh_max
