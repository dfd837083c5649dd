(** The swap device: where evicted segment images live while absent.

    A device is a record of closures, so implementations can live above
    this library in the dependency graph — the in-memory table here, the
    store-backed device in [I432_store.Swap_store] (journaled, CRC-framed,
    reclaimed by virtual-time compaction).  [now_ns] carries the faulting
    processor's virtual clock so a persistent device can drive its
    compaction schedule from virtual time, exactly as checkpoint blobs
    do.

    Transfer accounting is centralized in {!make}, so every
    implementation reports the same [stats] shape. *)

type stats = {
  mutable writes : int;
  mutable reads : int;
  mutable drops : int;
  mutable bytes_written : int;
  mutable bytes_read : int;
}

type t = private {
  dev_name : string;
  dev_write : index:int -> now_ns:int -> Bytes.t -> unit;
      (** Persist the image for [index], superseding any previous one. *)
  dev_read : index:int -> Bytes.t option;
      (** The image last written for [index], if any. *)
  dev_mem : index:int -> bool;
      (** Whether an image is held for [index].  A presence probe, not a
          transfer: it never touches [dev_stats], so the clean-eviction
          check in the swapping manager costs no accounted I/O. *)
  dev_drop : index:int -> now_ns:int -> unit;
      (** Discard [index]'s image (tombstone on a persistent device). *)
  dev_stats : stats;
}

(** Wrap an implementation; the returned closures keep [dev_stats].
    [mem] defaults to probing [read] directly (bypassing the stats). *)
val make :
  name:string ->
  ?mem:(index:int -> bool) ->
  write:(index:int -> now_ns:int -> Bytes.t -> unit) ->
  read:(index:int -> Bytes.t option) ->
  drop:(index:int -> now_ns:int -> unit) ->
  unit ->
  t

val write : t -> index:int -> now_ns:int -> Bytes.t -> unit
val read : t -> index:int -> Bytes.t option
val mem : t -> index:int -> bool
val drop : t -> index:int -> now_ns:int -> unit
val name : t -> string
val stats : t -> stats

(** A hash-table device, the swapping manager's default — image lifetime
    is the device's lifetime, nothing persists. *)
val in_memory : unit -> t
