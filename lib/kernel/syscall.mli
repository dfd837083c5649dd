(** The kernel boundary of a simulated process.

    Every potentially blocking 432 instruction is performed as an effect;
    the machine's run loop handles it, charges virtual time, and either
    resumes the process or suspends it.

    Ports have exactly two instructions, {!Send} and {!Receive} (paper §4,
    Fig. 1).  What the conditional and timed forms add is only how long
    the caller is willing to wait, so they are the same two instructions
    with another {!wait}. *)

open I432

(** How long a port instruction may wait for queue space (send) or a
    message (receive). *)
type wait =
  | Block  (** park until the transfer happens *)
  | Poll  (** never park; report whether the transfer happened *)
  | Within of int
      (** park for at most this many virtual ns; [Within ns] with
          [ns <= 0] is [Poll] *)

type op =
  | Send of { port : Access.t; msg : Access.t; wait : wait }
      (** result [R_accepted]: [false] only when a [Poll] found the queue
          full or a [Within] deadline passed *)
  | Receive of { port : Access.t; wait : wait }
      (** result [R_msg]: [None] only when a [Poll] found no message or a
          [Within] deadline passed *)
  | Delay of int  (** sleep for the given virtual nanoseconds *)
  | Yield  (** surrender the processor, stay ready *)
  | Preempt  (** involuntary yield injected at time-slice end *)
  | Exit  (** voluntary termination *)
  | Txn_try of {
      t_key : int;  (** idempotency key; a key is applied at most once *)
      t_receives : Access.t list;  (** ports to take one message from *)
      t_sends : (Access.t * Access.t) list;  (** (port, msg) to deliver *)
      t_writes : (Access.t * int * int) list;
          (** (object, byte offset, i32 word) data writes *)
    }
      (** one atomic attempt at a multi-port group: validate every staged
          operation in ascending port-id order, then apply all of them at
          one virtual-time instant, or apply none and report the first
          conflicting port.  Never blocks; retry/abort policy lives above
          the kernel ({!I432_txn.Txn}). *)

type result =
  | R_unit
  | R_msg of Access.t option
  | R_accepted of bool
  | R_txn of txn_result

and txn_result =
  | Txn_committed of {
      received : Access.t list;  (** receives, in staging order *)
      commit_ns : int;  (** the commit's virtual-time instant *)
      fresh : bool;
          (** [false]: the key had already been applied — receives and
              writes were skipped, sends were re-issued best-effort (the
              reply-cache semantics a retried commit needs) *)
    }
  | Txn_conflict of { port : int; reason : string }
      (** first conflicting port in validation order; [port] is [-1] when
          the conflict is not port-shaped (e.g. a swapped-out write
          target's object index is reported instead) *)

type _ Effect.t += Syscall : op -> result Effect.t

(** Perform one syscall; only meaningful inside a process body running
    under the machine's handler. *)
val perform : op -> result

(** Perform {!Send}; [true] when the port accepted the message. *)
val send : port:Access.t -> msg:Access.t -> wait -> bool

(** Perform {!Receive}; [None] when no message arrived in time. *)
val receive : port:Access.t -> wait -> Access.t option

(** [true] when the wait never parks the caller ([Poll], [Within ns] with
    [ns <= 0]). *)
val polls : wait -> bool

val op_to_string : op -> string
