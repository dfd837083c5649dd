(** Named metrics registry: counters, gauges, and log-bucketed
    ({!I432_util.Stats.log_hist}) histograms.

    Instruments are resolved once (find-or-create by name) and updated
    through bare mutable fields on the hot path.  Dumps are sorted by
    name, so identical runs produce byte-identical JSON. *)

open I432_util

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : int }
type log_histogram = { l_name : string; l_hist : Stats.log_hist }

type t

val create : unit -> t

(** Find-or-create by name. *)
val counter : t -> string -> counter

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
val set : gauge -> int -> unit
val gauge_value : gauge -> int

(** Log-bucketed quantile histogram, find-or-create by name.  Every
    registry histogram has the same shape: 10 .. 10^10 (10 ns .. 10 s of
    virtual time) at 16 buckets per decade (~15% relative width), with
    underflow/overflow buckets for values outside it. *)
val log_histogram : t -> string -> log_histogram

val observe_log : log_histogram -> float -> unit

(** [log_quantile h q] with [q] in [0, 1]. *)
val log_quantile : log_histogram -> float -> float

(** {1 Domain safety}

    A registry has at most one writer at a time.  [claim] records the
    calling domain as the writer and fails if a different domain currently
    holds the claim; [release] clears it.  The parallel cluster engine
    brackets each node's round slice with claim/release, turning a
    partitioning bug into an immediate failure instead of a silent race. *)

val claim : t -> unit
val release : t -> unit

(** Fold [src] into [dst]: counters and gauges add; same-named histograms
    add bucket-wise.  Folding per-node registries in node order is
    deterministic. *)
val merge_into : dst:t -> src:t -> unit

val find_counter : t -> string -> counter option
val find_gauge : t -> string -> gauge option
val find_log_histogram : t -> string -> log_histogram option

(** Sorted by name. *)
val counters : t -> counter list

val gauges : t -> gauge list
val log_histograms : t -> log_histogram list

(** Schema [imax432-metrics/2]: [counters] and [gauges] as name -> int
    objects, and an always-present [histograms] object mapping each name
    to its log-bucketed histogram: [lo], [per_decade], [count], [sum],
    [mean], [min]/[max] ([null] when empty), [p50]/[p99]/[p999],
    [underflow], [overflow] and the [buckets] counts.  Every section is
    sorted by name. *)
val to_json : t -> Jout.t

(** Human-readable rendering for operator tooling: one [counter],
    [gauge] or [hist] line per instrument; a [hist] line gives count,
    mean and p50/p99/p999. *)
val render : t -> string
