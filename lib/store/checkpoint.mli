(** Whole-machine checkpoint/restore by deterministic replay.

    OCaml effect continuations (the suspended process bodies in
    {!I432_kernel.Process.code}) cannot be serialized, so a checkpoint
    does not marshal closures.  Instead it records {e how far} a
    deterministic run had advanced (a kill bound: an instruction-step
    count, a virtual-time horizon, or a cluster round count) together
    with the full {!I432_kernel.Snapshot.state_image} of the machine at
    that instant.  [restore] re-boots the scenario through a
    caller-supplied closure — which must re-arm the same workload, seed,
    and FI plans — replays it to the recorded bound, and verifies the
    replayed image against the stored one byte-for-byte before handing
    the machine back.  Because the kernel is deterministic, the verified
    machine then continues exactly as the killed one would have: the
    resumed event stream is bit-identical to a run that was never killed.

    Cluster members checkpoint the same way, one image per node, bound
    by the interconnect round count; the boot closure re-exports and
    re-imports remote ports, and the replay regenerates the ARQ state
    (sequence numbers, unacked windows, backlogs) as a consequence. *)

module K := I432_kernel
module Net := I432_net

(** How far the checkpointed run had advanced — the bound to replay to. *)
type bound =
  | Steps of int  (** [Machine.run ~max_steps] *)
  | Virtual_ns of int  (** [Machine.run ~max_ns] *)
  | Rounds of { rounds : int; quantum_ns : int }
      (** [Cluster.run ~max_rounds ~quantum_ns] *)

type record = {
  c_key : string;
  c_bound : bound;
  c_now_ns : int;  (** virtual time at the checkpoint instant *)
  c_nodes : (string * string) list;
      (** (node name, state image); a single machine is the one pair
          [("", image)] *)
}

(** Replayed state differs from the checkpointed state — the boot closure
    did not reproduce the original scenario (different seed, workload, or
    FI plan), or the run crossed a nondeterministic seam.  Carries the
    first divergent image line. *)
exception Restore_mismatch of string

(** Checkpoint [machine], which the caller has just run to [bound], into
    the store under [key] (fsynced before returning). *)
val save : Store.t -> key:string -> bound:bound -> K.Machine.t -> record

(** Re-boot, replay to the saved bound, verify the state image, return
    the machine ready to continue.  Raises [Restore_mismatch] on
    divergence and [Imax.Object_filing.Not_filed] for an unknown key. *)
val restore : Store.t -> key:string -> boot:(unit -> K.Machine.t) -> K.Machine.t

(** Checkpoint every node of [cluster] at a round boundary: the caller
    has just run [Cluster.run ~quantum_ns ~max_rounds] and passes the
    report's actual round count. *)
val save_cluster :
  Store.t -> key:string -> rounds:int -> quantum_ns:int -> Net.Cluster.t -> record

(** Re-boot the cluster (nodes, links, exports, imports, link plans),
    replay the recorded rounds, verify every node's image. *)
val restore_cluster :
  Store.t -> key:string -> boot:(unit -> Net.Cluster.t) -> Net.Cluster.t

(** Restore one node of a cluster checkpoint, for splicing into a
    {e running} cluster at a node-plan restart: [restore_cluster], then
    that node's machine.  The verified machine's object-table layout is
    byte-identical to the dead incarnation's at the checkpoint, so
    descriptors cached by survivors (home ports, name-service entries)
    remain valid against it.  Raises [Restore_mismatch] on divergence of
    any node, an unknown node index, or a non-cluster checkpoint. *)
val restore_node :
  Store.t -> key:string -> node:int -> boot:(unit -> Net.Cluster.t) -> K.Machine.t

(** Stage a whole-node failure on [cluster], which [boot] built and
    which has not run yet (its round grid starts at 0): run it on
    [engine] (default [Seq]) to the last [quantum_ns] round boundary at
    or below [ckpt_ns] (default [kill_ns]), file every node's image
    under [key] with {!save_cluster}, then arm a node plan that kills
    [node] at [kill_ns] and, given [restart_ns], splices
    [restore_node ~boot] back in at that instant.  The caller resumes
    with [Net.Cluster.run] (same [quantum_ns]).  A checkpoint earlier
    than the kill leaves a rollback window the rejoin re-executes.
    Returns the armed plan.  Raises [Invalid_argument] when the kill
    precedes the first round boundary, the checkpoint follows the kill,
    or the restart does not follow it. *)
val stage_node_failure :
  Store.t ->
  key:string ->
  ?engine:Net.Cluster.engine ->
  quantum_ns:int ->
  ?ckpt_ns:int ->
  seed:int ->
  node:int ->
  kill_ns:int ->
  ?restart_ns:int ->
  boot:(unit -> Net.Cluster.t) ->
  Net.Cluster.t ->
  I432_fi.Fi.node_plan

(** The decoded checkpoint record under [key], if any. *)
val load : Store.t -> key:string -> record option
