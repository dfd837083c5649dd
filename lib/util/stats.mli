(** Jain's fairness index for the benchmark harness, and the log-bucketed
    histogram behind every metrics-registry histogram. *)

(** Jain's fairness index in (0, 1]; 1.0 means all values equal. *)
val jain_fairness : float array -> float

(** {1 Log-bucketed histograms}

    A streaming geometric histogram: [per_decade] buckets per factor of
    10, spanning [decades] decades upward from [lo], with explicit
    underflow/overflow buckets: no finite observation is ever silently
    dropped.  NaN observations are ignored.  Every bucket has the same
    relative width, so tail quantiles (p999) stay resolvable over a
    multi-decade latency range where fixed-width buckets would collapse
    the tail into one. *)
type log_hist = {
  lh_lo : float;  (** lower edge of bucket 0; > 0 *)
  lh_per_decade : int;
  lh_log_lo : float;  (** cached [log10 lh_lo] *)
  lh_counts : int array;
  mutable lh_underflow : int;  (** observations below [lo] *)
  mutable lh_overflow : int;  (** observations beyond the last bucket *)
  mutable lh_count : int;  (** all finite observations *)
  mutable lh_sum : float;
  mutable lh_min : float;  (** [infinity] when empty *)
  mutable lh_max : float;  (** [neg_infinity] when empty *)
}

(** Raises [Invalid_argument] unless [per_decade > 0], [decades > 0] and
    [lo > 0]. *)
val log_hist_create :
  per_decade:int -> lo:float -> decades:int -> unit -> log_hist

val log_hist_observe : log_hist -> float -> unit

(** 0.0 when empty. *)
val log_hist_mean : log_hist -> float

(** Lower edge of bucket [b] (also defined for [b] = bucket count, the
    histogram's upper range limit). *)
val log_hist_edge : log_hist -> int -> float

(** [log_hist_quantile h q] with [q] in [0, 1]: cumulative bucket walk
    with geometric interpolation inside the landing bucket, clamped to
    the observed [min, max] ([q] = 0 returns the exact minimum).  0.0
    when empty; raises [Invalid_argument]
    on [q] outside [0, 1].  The estimate's relative error is bounded by
    one bucket's relative width, [10^(1/per_decade)]. *)
val log_hist_quantile : log_hist -> float -> float

(** Fold [src] into [dst].  Raises [Invalid_argument] unless both share
    [lo], [per_decade] and bucket count.  Sums run dst-then-src, so
    folding a fixed sequence of histograms is deterministic. *)
val log_hist_merge_into : dst:log_hist -> src:log_hist -> unit
