(** Memory management via alternate implementations of one specification
    (paper §6.2).

    The common interface is the module type {!S}; the system is configured
    by selecting one implementation (see {!System}).  It covers the three
    allocation mechanisms of §5 — stack (per-level local heaps), global
    heap, and local heap — plus explicit release and the [touch] recency
    hint.  Swapping is invisible behind it: callers need not know which
    implementation runs. *)

open I432
module K := I432_kernel
module Vm := I432_vm

type stats = {
  mutable allocations : int;
  mutable frees : int;
  mutable swap_ins : int;
  mutable swap_outs : int;
  mutable alloc_faults : int;  (** storage exhausted on first attempt *)
}

module type S = sig
  type t

  val name : t -> string
  val create : K.Machine.t -> heap_bytes:int -> t

  val allocate :
    t -> data_length:int -> access_length:int -> otype:Obj_type.t -> Access.t

  val allocate_local :
    t ->
    level:int ->
    data_length:int ->
    access_length:int ->
    otype:Obj_type.t ->
    Access.t

  val free : t -> Access.t -> unit

  (** The recency hint the LRU and level-aware policies read: bring the
      segment in and refresh its recency (swapping), or just validate
      (non-swapping).  Not needed for correctness. *)
  val touch : t -> Access.t -> unit

  (** The per-implementation management interface the paper allows. *)
  val stats : t -> stats
end

(** The paper's first release: no swapping; exhaustion faults. *)
module Nonswapping : S

(** The second release: segments move to a swap device under pressure
    and return on first use.  [create_with] installs [touch] as the
    machine's swap handler ({!I432_kernel.Machine.set_swap_handler}), so
    a checked access to an absent segment by a process at system level 3
    or above faults to this manager, which swaps it in, and the access
    restarts; below level 3 it stays a [Segment_swapped_out] fault and
    the kernel panics (§7.3).  Swap-in enforces the RAM envelope before
    it charges, so a swap-in preempted by its own charge never leaves the
    resident set over the envelope.  Swap-in and swap-out each charge
    0.4 ms, a fast backing store.

    There is one swap-in/swap-out path, whatever the device: every
    manager creates the [swap.ins]/[swap.outs]/[swap.faults]/
    [swap.bytes_in]/[swap.bytes_out] counters and emits the
    [Swap_out]/[Swap_in]/[Swap_fault] events, and swap-in leaves the
    image on the device, so a segment not written since can be evicted
    again without a write or a charge ([swap.clean_evictions]).  [name]
    is ["swapping/"] followed by the policy's {!I432_vm.Policy.to_string}. *)
module Swapping : sig
  include S

  (** The additional management interface (§6.2): [create_with]
      configures what [create] defaults — the victim [policy] realized by
      {!I432_vm.Resident_set} (default [Lru]), a resident-set RAM
      envelope in bytes (evictions keep the sum of resident segment bytes
      at or under it; default none, so only heap pressure evicts), and
      the swap [device] absent segments live on (default a private
      {!I432_vm.Swap_device.in_memory}). *)
  val create_with :
    ?policy:Vm.Policy.t ->
    ?ram_bytes:int ->
    ?device:Vm.Swap_device.t ->
    K.Machine.t ->
    heap_bytes:int ->
    t

  val device : t -> Vm.Swap_device.t
  val ram_bytes : t -> int option
  val resident_bytes : t -> int
  val resident_count : t -> int
end
