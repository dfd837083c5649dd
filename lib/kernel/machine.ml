(* The simulated 432 system: one shared memory, one global object table, N
   general data processors, and a hardware dispatching port.

   The run loop is a deterministic discrete-event simulation: it always
   advances the processor with the smallest virtual clock (ties broken by
   processor id), resuming that processor's current process until its next
   syscall.  Non-blocking instructions (segment access, allocation, domain
   calls, computation) are charged to the running processor directly by the
   wrapper functions below; potentially blocking instructions arrive here as
   {!Syscall} effects and are implemented against the port and dispatching
   structures.

   All synchronization is explicit, as §3 requires: nothing in the kernel
   assumes a single processor is running. *)

open I432
module Obs = I432_obs

exception Kernel_panic of string

type config = {
  processors : int;
  memory_bytes : int;
  timings : Timings.t;
  bus_alpha_per_mille : int;
  global_heap_bytes : int;  (* size of the boot-time level-0 SRO *)
  trace_level : Obs.Tracer.level;
  trace_capacity : int;  (* event-ring slots per processor *)
}

let default_config =
  {
    processors = 1;
    memory_bytes = 1 lsl 22;
    timings = Timings.default;
    bus_alpha_per_mille = 20;
    global_heap_bytes = (1 lsl 22) - 4096;
    trace_level = Obs.Tracer.Off;
    trace_capacity = Obs.Tracer.default_capacity;
  }

type run_report = {
  elapsed_ns : int;  (* largest processor clock at halt *)
  completed : int;
  faulted : int;
  deadlocked : string list;  (* names of processes still blocked at halt *)
  dispatches : int;
  preemptions : int;
}

(* Deterministic fault injection (DESIGN.md §8).  An injection is an action
   scheduled at a virtual instant; the run loop fires every injection whose
   time has come on the processor it is about to advance, so identical
   plans replay identically.  All of this is off unless a plan is armed:
   the legacy hot paths see one empty-list check per loop iteration. *)
type injection =
  | Inj_cpu_fault of int  (* hard-fault the GDP: it goes offline forever *)
  | Inj_transient of int  (* next body instruction on this GDP faults *)
  | Inj_alloc_fault of int  (* force the next n allocations to fail *)
  | Inj_port_delay of int  (* extra ns charged at the next port syscall *)

let injection_to_string = function
  | Inj_cpu_fault id -> Printf.sprintf "cpu-fault(%d)" id
  | Inj_transient id -> Printf.sprintf "transient(%d)" id
  | Inj_alloc_fault n -> Printf.sprintf "alloc-fault(%d)" n
  | Inj_port_delay ns -> Printf.sprintf "port-delay(%dns)" ns

let injection_arg = function
  | Inj_cpu_fault id | Inj_transient id -> id
  | Inj_alloc_fault n -> n
  | Inj_port_delay ns -> ns

(* Pre-resolved metrics instruments: the hot paths update bare mutable
   fields; the registry is only walked on dump. *)
type monitors = {
  mon_charged_ns : Obs.Metrics.counter;
  mon_spawns : Obs.Metrics.counter;
  mon_dispatches : Obs.Metrics.counter;
  mon_enqueues : Obs.Metrics.counter;
  mon_preemptions : Obs.Metrics.counter;
  mon_sends : Obs.Metrics.counter;
  mon_receives : Obs.Metrics.counter;
  mon_send_blocks : Obs.Metrics.counter;
  mon_receive_blocks : Obs.Metrics.counter;
  mon_allocates : Obs.Metrics.counter;
  mon_releases : Obs.Metrics.counter;
  mon_sro_creates : Obs.Metrics.counter;
  mon_sro_destroys : Obs.Metrics.counter;
  mon_domain_calls : Obs.Metrics.counter;
  mon_faults : Obs.Metrics.counter;
  mon_injections : Obs.Metrics.counter;
  mon_cpu_offline : Obs.Metrics.counter;
  mon_requeues : Obs.Metrics.counter;
  mon_alloc_retries : Obs.Metrics.counter;
  mon_timeouts : Obs.Metrics.counter;
  mon_ready_len : Obs.Metrics.gauge;
  mon_dispatch_latency : Obs.Metrics.log_histogram;
  mon_port_wait : Obs.Metrics.log_histogram;
  mon_alloc_size : Obs.Metrics.log_histogram;
}

type t = {
  table : Object_table.t;
  memory : Memory.t;
  timings : Timings.t;
  bus : Bus.t;
  processors : Processor.t array;
  dispatch : Dispatch.t;
  global_sro : Access.t;
  mutable current : Processor.t option;
  mutable in_body : bool;  (* true while a process body is executing *)
  mutable processes : Process.t list;  (* every process ever created *)
  mutable gc_roots : Access.t list;
  obs : Obs.Tracer.t;
  metrics : Obs.Metrics.t;
  mon : monitors;
  mutable preemptions : int;
  mutable faults : (string * Fault.cause) list;  (* newest first; see [faults] *)
  mutable fault_port : int option;  (* faulted processes are sent here *)
  (* Fault injection and recovery state.  All defaults leave every legacy
     path untouched: empty plan, zero counters, no hooks. *)
  mutable injections : (int * int * injection) list;  (* (at_ns, seq, _) sorted *)
  mutable inj_seq : int;
  mutable forced_alloc_faults : int;  (* armed by Inj_alloc_fault *)
  mutable pending_port_delay_ns : int;  (* armed by Inj_port_delay *)
  mutable reclaim_hook : (unit -> int) option;  (* allocate_retry's GC *)
  mutable fault_hook : (Process.t -> Fault.cause -> unit) option;
  (* The memory manager's fault-in for absent segments (§6.2), installed
     by a swapping manager; [None] leaves [Segment_swapped_out] a fault. *)
  mutable swap_handler : (Access.t -> unit) option;
  (* Idempotency keys of applied transaction groups (Txn_try).  Part of
     the machine's replayed state: a checkpoint restore re-executes the
     same commits and rebuilds the same set, so a retried group can never
     double-apply across a crash.  Empty until the first keyed commit. *)
  txn_applied : (int, unit) Hashtbl.t;
  (* Domain id currently inside [run], if any.  A machine is a
     single-domain object: the parallel cluster engine steps each node on
     exactly one domain per round, and this field turns a violated
     partitioning into an immediate failure instead of a data race. *)
  mutable stepper : int option;
}

let make_monitors metrics =
  {
    mon_charged_ns = Obs.Metrics.counter metrics "machine.charged_ns";
    mon_spawns = Obs.Metrics.counter metrics "proc.spawns";
    mon_dispatches = Obs.Metrics.counter metrics "dispatch.dispatches";
    mon_enqueues = Obs.Metrics.counter metrics "dispatch.enqueues";
    mon_preemptions = Obs.Metrics.counter metrics "dispatch.preemptions";
    mon_sends = Obs.Metrics.counter metrics "port.sends";
    mon_receives = Obs.Metrics.counter metrics "port.receives";
    mon_send_blocks = Obs.Metrics.counter metrics "port.send_blocks";
    mon_receive_blocks = Obs.Metrics.counter metrics "port.receive_blocks";
    mon_allocates = Obs.Metrics.counter metrics "sro.allocates";
    mon_releases = Obs.Metrics.counter metrics "sro.releases";
    mon_sro_creates = Obs.Metrics.counter metrics "sro.creates";
    mon_sro_destroys = Obs.Metrics.counter metrics "sro.destroys";
    mon_domain_calls = Obs.Metrics.counter metrics "domain.calls";
    mon_faults = Obs.Metrics.counter metrics "machine.faults";
    mon_injections = Obs.Metrics.counter metrics "fi.injections";
    mon_cpu_offline = Obs.Metrics.counter metrics "fi.cpu_offline";
    mon_requeues = Obs.Metrics.counter metrics "fi.requeues";
    mon_alloc_retries = Obs.Metrics.counter metrics "sro.alloc_retries";
    mon_timeouts = Obs.Metrics.counter metrics "port.timeouts";
    mon_ready_len = Obs.Metrics.gauge metrics "dispatch.ready_len";
    mon_dispatch_latency =
      Obs.Metrics.log_histogram metrics "dispatch.latency_ns";
    mon_port_wait = Obs.Metrics.log_histogram metrics "port.wait_ns";
    mon_alloc_size = Obs.Metrics.log_histogram metrics "alloc.size_bytes";
  }

let create ?(config = default_config) () =
  if config.processors <= 0 then invalid_arg "Machine.create: processors";
  let metrics = Obs.Metrics.create () in
  let table = Object_table.create () in
  let memory = Memory.create ~size_bytes:config.memory_bytes in
  let bus =
    Bus.create ~alpha_per_mille:config.bus_alpha_per_mille
      ~processors:config.processors ()
  in
  let global_sro =
    Sro.create table ~level:0 ~base:4096 ~length:config.global_heap_bytes
  in
  let processors =
    Array.init config.processors (fun id ->
        let e =
          Object_table.allocate_entry table ~otype:Obj_type.Processor ~base:0
            ~data_length:0 ~access_length:4 ~level:0 ~sro:(-1)
        in
        let p = Processor.make ~id ~self:e.Object_table.index in
        e.Object_table.payload <- Some (Processor.Processor_state p);
        p)
  in
  {
    table;
    memory;
    timings = config.timings;
    bus;
    processors;
    dispatch = Dispatch.create ();
    global_sro;
    current = None;
    in_body = false;
    processes = [];
    gc_roots = [];
    obs =
      Obs.Tracer.create ~capacity:config.trace_capacity
        ~level:config.trace_level ~processors:config.processors ();
    metrics;
    mon = make_monitors metrics;
    preemptions = 0;
    faults = [];
    fault_port = None;
    injections = [];
    inj_seq = 0;
    forced_alloc_faults = 0;
    pending_port_delay_ns = 0;
    reclaim_hook = None;
    fault_hook = None;
    swap_handler = None;
    txn_applied = Hashtbl.create 16;
    stepper = None;
  }

let table t = t.table
let memory t = t.memory
let timings t = t.timings
let bus t = t.bus
let global_sro t = t.global_sro
let processor_count t = Array.length t.processors
let tracer t = t.obs
let metrics t = t.metrics
let events t = Obs.Tracer.events t.obs

(* Faults in emission order: the list is accumulated newest-first (O(1)
   prepend on the fault path) and reversed here, so the first fault the
   machine recorded is the first element.  This ordering is part of the
   API contract and covered by a regression test. *)
let faults t = List.rev t.faults

let online_processors t =
  Array.fold_left
    (fun acc p -> if p.Processor.online then acc + 1 else acc)
    0 t.processors

let set_reclaim_hook t hook = t.reclaim_hook <- hook
let set_fault_hook t hook = t.fault_hook <- hook
let set_swap_handler t handler = t.swap_handler <- handler

(* Applied transaction keys, ascending (snapshot images and tests). *)
let txn_applied_keys t =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) t.txn_applied [])

let txn_key_applied t ~key = Hashtbl.mem t.txn_applied key

(* Virtual time now: the clock of the executing processor, or the max clock
   when called from outside the run loop. *)
let now t =
  match t.current with
  | Some p -> p.Processor.clock_ns
  | None ->
    Array.fold_left (fun acc p -> max acc p.Processor.clock_ns) 0 t.processors

(* Record one structured event, stamped with the executing processor's id
   and virtual clock (or -1 / max clock outside the run loop).  One field
   read when tracing is off; one mask load more when the event's subsystem
   is filtered out — the timestamp ([now t] folds every processor clock
   outside the run loop) and interning are skipped entirely. *)
let emit t ?name ?detail ?a ?b kind =
  if Obs.Tracer.wants t.obs ~kind_code:(Obs.Event.kind_to_int kind) then
    match t.current with
    | Some p ->
      Obs.Tracer.emit t.obs ~ts_ns:p.Processor.clock_ns ~cpu:p.Processor.id
        ?name ?detail ?a ?b kind
    | None -> Obs.Tracer.emit t.obs ~ts_ns:(now t) ~cpu:(-1) ?name ?detail ?a ?b kind

(* Same, on behalf of a known processor (the run loop clears [t.current]
   before it settles a process's outcome). *)
let emit_on t (cpu : Processor.t) ?name ?detail ?a ?b kind =
  if Obs.Tracer.wants t.obs ~kind_code:(Obs.Event.kind_to_int kind) then
    Obs.Tracer.emit t.obs ~ts_ns:cpu.Processor.clock_ns ~cpu:cpu.Processor.id
      ?name ?detail ?a ?b kind

let emit_event = emit

(* The hottest seams bypass [emit]'s option boxing, string interning, and
   kind conversion: kind codes are computed once here, and each process's
   name id is interned once at spawn ([Process.trace_name_id]). *)
let k_ready = Obs.Event.kind_to_int Obs.Event.Ready
let k_yield = Obs.Event.kind_to_int Obs.Event.Yield
let k_preempt = Obs.Event.kind_to_int Obs.Event.Preempt
let k_exit = Obs.Event.kind_to_int Obs.Event.Exit
let k_sleep = Obs.Event.kind_to_int Obs.Event.Sleep
let k_wake = Obs.Event.kind_to_int Obs.Event.Wake
let k_send = Obs.Event.kind_to_int Obs.Event.Send
let k_receive = Obs.Event.kind_to_int Obs.Event.Receive
let k_block_send = Obs.Event.kind_to_int Obs.Event.Block_send
let k_block_receive = Obs.Event.kind_to_int Obs.Event.Block_receive
let k_allocate = Obs.Event.kind_to_int Obs.Event.Allocate
let k_release = Obs.Event.kind_to_int Obs.Event.Release
let k_dispatch = Obs.Event.kind_to_int Obs.Event.Dispatch
let k_finish = Obs.Event.kind_to_int Obs.Event.Finish

let emit_fast t ~name_id ~a ~b kind_code =
  if Obs.Tracer.wants t.obs ~kind_code then
    match t.current with
    | Some p ->
      Obs.Tracer.emit_raw t.obs ~ts_ns:p.Processor.clock_ns
        ~cpu:p.Processor.id ~kind_code ~name_id ~detail_id:0 ~a ~b
    | None ->
      Obs.Tracer.emit_raw t.obs ~ts_ns:(now t) ~cpu:(-1) ~kind_code ~name_id
        ~detail_id:0 ~a ~b

let emit_fast_on t (cpu : Processor.t) ~name_id ~a ~b kind_code =
  if Obs.Tracer.wants t.obs ~kind_code then
    Obs.Tracer.emit_raw t.obs ~ts_ns:cpu.Processor.clock_ns
      ~cpu:cpu.Processor.id ~kind_code ~name_id ~detail_id:0 ~a ~b

(* Charge virtual time for an instruction to the running processor, with bus
   contention applied.  Outside the run loop (boot code) charges are free:
   configuration happens "before the machine starts". *)
let charge t ns =
  match t.current with
  | None -> ()
  | Some p ->
    let eff = Bus.penalize t.bus ns in
    Obs.Metrics.incr ~by:eff t.mon.mon_charged_ns;
    p.Processor.clock_ns <- p.Processor.clock_ns + eff;
    p.Processor.busy_ns <- p.Processor.busy_ns + eff;
    (match p.Processor.current with
    | Some pi ->
      let proc = Process.state_of_index t.table pi in
      proc.Process.cpu_ns <- proc.Process.cpu_ns + eff;
      proc.Process.slice_used_ns <- proc.Process.slice_used_ns + eff;
      (* Injected transient instruction fault: unwinds as the running
         process's own fault, from body context only (like the time-slice
         check below, kernel-side charges must not unwind). *)
      if t.in_body && p.Processor.transient_pending then begin
        p.Processor.transient_pending <- false;
        Fault.raise_fault (Fault.Transient "injected instruction fault")
      end;
      (* Time-slice end (§5): when the slice expires while the body is
         executing, inject an involuntary yield at this instruction
         boundary.  Only from body context — kernel-side charges (dispatch,
         syscall service) must not unwind. *)
      if
        t.in_body
        && proc.Process.slice_used_ns >= t.timings.Timings.time_slice_ns
        && proc.Process.status = Process.Running
      then ignore (Syscall.perform Syscall.Preempt)
    | None -> ())

(* ------------------------------------------------------------------ *)
(* Checked, time-charged instruction wrappers                          *)
(* ------------------------------------------------------------------ *)

let compute t units = charge t (units * t.timings.Timings.compute_unit_ns)

(* The process currently executing on the charging processor, if any. *)
let running_process t =
  match t.current with
  | Some p -> (
    match p.Processor.current with
    | Some pi -> Some (Process.state_of_index t.table pi)
    | None -> None)
  | None -> None

(* The one fault path for absent segments (§6.2, §7.3).  A checked
   access to a swapped-out segment calls the installed memory manager,
   which brings the segment in, and the instruction restarts; the restart
   repeats only the access, not its charge.  A process below system level
   3 may not fault (§7.3), so there the fault stays a fault and
   [record_fault] panics the machine.  The hit path installs one exception
   handler and allocates nothing. *)
let usable_swap_handler t =
  match (t.swap_handler, running_process t) with
  | Some _, Some proc when proc.Process.system_level < 3 -> None
  | handler, _ -> handler

let fault_in t access =
  match usable_swap_handler t with
  | Some handler -> handler access
  | None -> Fault.raise_fault (Fault.Segment_swapped_out (Access.index access))

let rec present t access op x =
  match op t access x with
  | r -> r
  | exception Fault.Fault (Fault.Segment_swapped_out _) ->
    fault_in t access;
    present t access op x

let rec present2 t access op x y =
  match op t access x y with
  | r -> r
  | exception Fault.Fault (Fault.Segment_swapped_out _) ->
    fault_in t access;
    present2 t access op x y

let read_word t access ~offset =
  charge t t.timings.Timings.read_word_ns;
  present t access
    (fun t a offset -> Segment.read_i32 t.table t.memory a ~offset)
    offset

let write_word t access ~offset v =
  charge t t.timings.Timings.write_word_ns;
  present2 t access
    (fun t a offset v -> Segment.write_i32 t.table t.memory a ~offset v)
    offset v

let read_byte t access ~offset =
  charge t t.timings.Timings.read_word_ns;
  present t access
    (fun t a offset -> Segment.read_u8 t.table t.memory a ~offset)
    offset

let write_byte t access ~offset v =
  charge t t.timings.Timings.write_word_ns;
  present2 t access
    (fun t a offset v -> Segment.write_u8 t.table t.memory a ~offset v)
    offset v

let read_bytes t access ~offset ~len =
  charge t (t.timings.Timings.read_word_ns * (1 + (len / 4)));
  present2 t access
    (fun t a offset len -> Segment.read_bytes t.table t.memory a ~offset ~len)
    offset len

let write_bytes t access ~offset src =
  charge t (t.timings.Timings.write_word_ns * (1 + (Bytes.length src / 4)));
  present2 t access
    (fun t a offset src -> Segment.write_bytes t.table t.memory a ~offset src)
    offset src

let load_access t access ~slot =
  charge t t.timings.Timings.move_access_ns;
  present t access (fun t a slot -> Segment.load_access t.table a ~slot) slot

let store_access t access ~slot v =
  charge t t.timings.Timings.move_access_ns;
  present2 t access
    (fun t a slot v -> Segment.store_access t.table a ~slot v)
    slot v

(* The create-object instruction (§5): ~80 us. *)
let allocate t sro ~data_length ~access_length ~otype =
  charge t t.timings.Timings.allocate_ns;
  (* Injected storage exhaustion: only process-context allocations fault
     (boot-time configuration is exempt). *)
  if t.forced_alloc_faults > 0 && t.current <> None then begin
    t.forced_alloc_faults <- t.forced_alloc_faults - 1;
    Fault.raise_fault
      (Fault.Storage_exhausted { requested = data_length; available = 0 })
  end;
  let access = Sro.allocate t.table sro ~data_length ~access_length ~otype in
  Obs.Metrics.incr t.mon.mon_allocates;
  Obs.Metrics.observe_log t.mon.mon_alloc_size (float_of_int data_length);
  emit_fast t ~name_id:0 ~a:(Access.index access) ~b:data_length k_allocate;
  access

let allocate_generic t ?(data_length = 64) ?(access_length = 4) () =
  allocate t t.global_sro ~data_length ~access_length ~otype:Obj_type.Generic

let release t sro ~index =
  charge t t.timings.Timings.destroy_ns;
  Sro.release_by_access t.table sro ~index;
  Obs.Metrics.incr t.mon.mon_releases;
  emit_fast t ~name_id:0 ~a:index ~b:0 k_release

(* Local heaps (§5): an SRO created at the process's current call depth.
   Carved from the global heap's free store. *)
let create_local_sro t ~level ~bytes =
  charge t t.timings.Timings.allocate_ns;
  (* The new heap's store is carved whole from the global heap's free
     regions (it is address space, not a segment, so the 64K segment limit
     does not apply). *)
  let s = Sro.state_of t.table t.global_sro in
  match Sro.carve t.table ~sro_state:s ~size:bytes with
  | Some base ->
    let sro = Sro.create t.table ~level ~base ~length:bytes in
    Obs.Metrics.incr t.mon.mon_sro_creates;
    emit t ~a:(Access.index sro) ~b:bytes Obs.Event.Sro_create;
    sro
  | None ->
    Fault.raise_fault
      (Fault.Storage_exhausted
         { requested = bytes; available = Sro.free_bytes t.table t.global_sro })

let destroy_sro t sro =
  charge t t.timings.Timings.destroy_ns;
  let index = Access.index sro in
  let reclaimed = Sro.destroy t.table sro in
  Obs.Metrics.incr t.mon.mon_sro_destroys;
  emit t ~a:index ~b:reclaimed Obs.Event.Sro_destroy;
  reclaimed

(* Domain transitions (§2): ~65 us per switch at 8 MHz.  With [timeout_ns]
   the call is supervised by a virtual-time watchdog: if the callee consumed
   more than the budget, the (completed) call still raises [Fault.Timeout] —
   the caller asked for a bounded operation and did not get one. *)
let domain_call t ?timeout_ns domain f =
  let d = Domain.state_of t.table domain in
  let started_at = now t in
  charge t t.timings.Timings.domain_call_ns;
  d.Domain.calls <- d.Domain.calls + 1;
  d.Domain.depth <- d.Domain.depth + 1;
  if d.Domain.depth > d.Domain.max_depth then d.Domain.max_depth <- d.Domain.depth;
  Obs.Metrics.incr t.mon.mon_domain_calls;
  emit t ~detail:d.Domain.domain_name ~a:d.Domain.self Obs.Event.Domain_call;
  let finish () =
    d.Domain.depth <- d.Domain.depth - 1;
    d.Domain.returns <- d.Domain.returns + 1;
    emit t ~detail:d.Domain.domain_name ~a:d.Domain.self Obs.Event.Domain_return;
    charge t t.timings.Timings.domain_return_ns
  in
  match f () with
  | v -> (
    finish ();
    match timeout_ns with
    | Some limit when now t - started_at > limit ->
      Fault.raise_fault (Fault.Timeout { waited_ns = now t - started_at })
    | Some _ | None -> v)
  | exception e ->
    finish ();
    raise e

(* An ordinary activation within the current domain, for comparison. *)
let intra_call t f =
  charge t t.timings.Timings.intra_call_ns;
  let v = f () in
  charge t t.timings.Timings.intra_return_ns;
  v

(* Bounded retry around [allocate]: on [Storage_exhausted], run the
   registered reclaim hook (a GC cycle, when the system wires one), back
   off for [backoff_ns] of virtual time (doubling each attempt), and try
   again.  Re-raises the last fault once the budget is spent. *)
let allocate_retry t sro ?(max_retries = 4) ?(backoff_ns = 100_000)
    ~data_length ~access_length ~otype () =
  let rec go attempt backoff =
    match allocate t sro ~data_length ~access_length ~otype with
    | access -> access
    | exception Fault.Fault (Fault.Storage_exhausted _ as cause) ->
      if attempt > max_retries then Fault.raise_fault cause
      else begin
        Obs.Metrics.incr t.mon.mon_alloc_retries;
        let name =
          match running_process t with
          | Some p -> p.Process.name
          | None -> ""
        in
        emit t ~name ~a:attempt ~b:backoff Obs.Event.Alloc_retry;
        (match t.reclaim_hook with
        | Some reclaim -> ignore (reclaim ())
        | None -> ());
        charge t backoff;
        go (attempt + 1) (backoff * 2)
      end
  in
  go 1 backoff_ns

(* Call [f] inside a fresh activation record (paper §2, §5): the context's
   level is one greater than the caller's, so capabilities for objects
   allocated at this depth cannot leak upward.  The context object is
   passed to [f] for its capability locals and destroyed on return. *)
let call_in_context t ?(slots = 8) f =
  match running_process t with
  | None -> Fault.raise_fault (Fault.Protocol "call_in_context outside a process")
  | Some proc ->
    charge t t.timings.Timings.intra_call_ns;
    let depth = proc.Process.call_depth + 1 in
    let caller =
      match proc.Process.contexts with
      | c :: _ -> Some (Access.index c)
      | [] -> None
    in
    let ctx = Context.create t.table t.global_sro ~depth ~caller ~slots in
    proc.Process.call_depth <- depth;
    proc.Process.contexts <- ctx :: proc.Process.contexts;
    let finish () =
      proc.Process.call_depth <- depth - 1;
      (match proc.Process.contexts with
      | _ :: rest -> proc.Process.contexts <- rest
      | [] -> ());
      Context.destroy t.table ctx;
      charge t t.timings.Timings.intra_return_ns
    in
    (match f ctx with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)

(* Current activation record of the running process. *)
let current_context t =
  match running_process t with
  | Some proc -> (
    match proc.Process.contexts with c :: _ -> Some c | [] -> None)
  | None -> None

(* Route faulted processes to a supervisor port (§5). *)
let set_fault_port t port =
  Segment.check_type t.table port Obj_type.Port;
  t.fault_port <- Some (Access.index port)

(* ------------------------------------------------------------------ *)
(* Ports                                                               *)
(* ------------------------------------------------------------------ *)

let create_port t ?(sro = None) ~capacity ~discipline () =
  if capacity < 1 then invalid_arg "Machine.create_port: capacity";
  (* A port's queue is its access part (§4), so its capacity is bounded
     by the access-part limit. *)
  if capacity > Object_table.max_access_length then
    invalid_arg
      (Printf.sprintf
         "Machine.create_port: capacity %d exceeds the 432's %d-AD \
          access-part limit"
         capacity Object_table.max_access_length);
  let sro = match sro with Some s -> s | None -> t.global_sro in
  let access =
    allocate t sro ~data_length:0 ~access_length:capacity ~otype:Obj_type.Port
  in
  let e = Object_table.entry_of_access t.table access in
  e.Object_table.payload <-
    Some
      (Port.Port_state
         (Port.make ~self:e.Object_table.index ~capacity ~discipline));
  access

let port_stats t access =
  let p = Port.state_of t.table access in
  ( p.Port.sends,
    p.Port.receives,
    p.Port.send_blocks,
    p.Port.receive_blocks,
    p.Port.max_depth,
    Port.mean_queue_wait_ns p )

(* ------------------------------------------------------------------ *)
(* Processes                                                           *)
(* ------------------------------------------------------------------ *)

let make_ready t (proc : Process.t) =
  proc.Process.status <- Process.Ready;
  proc.Process.last_ready_ns <- now t;
  Dispatch.enqueue t.dispatch ~process:proc.Process.index
    ~priority:proc.Process.priority;
  Obs.Metrics.incr t.mon.mon_enqueues;
  Obs.Metrics.set t.mon.mon_ready_len (Dispatch.length t.dispatch);
  emit_fast t ~name_id:proc.Process.trace_name_id ~a:proc.Process.index ~b:0
    k_ready

(* A process that can run again re-enters the dispatching mix, unless it is
   stopped: then it only becomes ready, and start puts it in the mix. *)
let requeue t (proc : Process.t) =
  if proc.Process.stopped then proc.Process.status <- Process.Ready
  else make_ready t proc

let proc_of t index = Process.state_of_index t.table index

(* ------------------------------------------------------------------ *)
(* Port transfer                                                       *)
(* ------------------------------------------------------------------ *)

(* Every message that crosses a port goes through the helpers below: a
   process's Send and Receive, a transaction's staged sends and receives,
   the NIC delivering into or draining a port, and the kernel's own
   notifications.  So the accounting is the same on every path:

   - a send is counted (port and machine [sends], the sender's
     [messages_sent], a Send event) when the port accepts the message — a
     handoff to a parked receiver, an enqueue, or the admission of a
     parked sender.  A send that is refused or withdrawn is never counted;
   - a receive is counted (port and machine [receives], the taker's
     [messages_received], a Receive event) when the message is taken.

   [sender]/[taker] is [None] when the kernel itself is the endpoint. *)

(* Resume a parked process with [result], disarming its deadline. *)
let resume t (proc : Process.t) result =
  proc.Process.deadline <- None;
  proc.Process.pending <- result;
  requeue t proc

let count_send t (p : Port.t) (sender : Process.t option) msg =
  p.Port.sends <- p.Port.sends + 1;
  Obs.Metrics.incr t.mon.mon_sends;
  match sender with
  | Some s ->
    s.Process.messages_sent <- s.Process.messages_sent + 1;
    emit_fast t ~name_id:s.Process.trace_name_id ~a:p.Port.self
      ~b:(Access.index msg) k_send
  | None -> ()

(* [wait_ns] is how long [msg] sat in [p]'s queue: 0 for a handoff to a
   parked receiver, so [port.wait_ns] counts every receive. *)
let count_receive t (p : Port.t) (taker : Process.t option) msg ~wait_ns =
  p.Port.receives <- p.Port.receives + 1;
  Obs.Metrics.incr t.mon.mon_receives;
  Obs.Metrics.observe_log t.mon.mon_port_wait (float_of_int wait_ns);
  match taker with
  | Some r ->
    r.Process.messages_received <- r.Process.messages_received + 1;
    emit_fast t ~name_id:r.Process.trace_name_id ~a:p.Port.self
      ~b:(Access.index msg) k_receive
  | None -> ()

(* Accept [msg] into [p], which must not be full: hand it to the first
   parked receiver, else queue it.  Either way the message is now
   reachable from the port or the receiver, so it is shaded (§8.1). *)
let accept t (p : Port.t) ~sender ?(txn = 0) ~priority msg =
  count_send t p sender msg;
  Object_table.shade t.table (Access.index msg);
  match Port.pop_receiver p with
  | Some r ->
    let rproc = proc_of t r in
    count_receive t p (Some rproc) msg ~wait_ns:0;
    resume t rproc (Syscall.R_msg (Some msg))
  | None -> Port.enqueue p ~txn ~msg ~priority ~now:(now t)

(* Admit a parked sender's message into space a receive freed. *)
let admit t (p : Port.t) (ws : Port.waiting_sender) =
  let sproc = proc_of t ws.Port.sender in
  count_send t p (Some sproc) ws.Port.sender_msg;
  Port.enqueue p ~msg:ws.Port.sender_msg ~priority:ws.Port.sender_priority
    ~now:(now t);
  resume t sproc (Syscall.R_accepted true)

(* Dequeue the message at the head of [p] for [taker], admitting nobody. *)
let dequeue t (p : Port.t) ~taker =
  match Port.dequeue_entry p ~now:(now t) with
  | Some qm as got ->
    count_receive t p taker qm.Port.msg ~wait_ns:p.Port.last_wait_ns;
    got
  | None -> None

(* Take a message from [p]: dequeue it and admit one parked sender into the
   freed slot, else meet a parked sender directly (its message passes
   through the queue at this instant). *)
let rec take t (p : Port.t) ~taker =
  match dequeue t p ~taker with
  | Some _ as got ->
    (match Port.pop_sender p with Some ws -> admit t p ws | None -> ());
    got
  | None -> (
    match Port.pop_sender p with
    | Some ws ->
      admit t p ws;
      take t p ~taker
    | None -> None)

(* Park [proc] at [p] until a transfer happens or, for [Within], until its
   deadline (enforced by [fire_deadlines]).  A sender parks with its
   message, a receiver without. *)
let park t (cpu : Processor.t) (proc : Process.t) (p : Port.t) ?msg wait =
  charge t t.timings.Timings.block_ns;
  proc.Process.blocks <- proc.Process.blocks + 1;
  (match msg with
  | Some msg ->
    p.Port.send_blocks <- p.Port.send_blocks + 1;
    Obs.Metrics.incr t.mon.mon_send_blocks;
    emit_fast t ~name_id:proc.Process.trace_name_id ~a:p.Port.self ~b:0
      k_block_send;
    Object_table.shade t.table (Access.index msg);
    Port.push_sender p ~sender:proc.Process.index ~msg
      ~priority:proc.Process.priority;
    proc.Process.status <- Process.Blocked_send p.Port.self
  | None ->
    p.Port.receive_blocks <- p.Port.receive_blocks + 1;
    Obs.Metrics.incr t.mon.mon_receive_blocks;
    emit_fast t ~name_id:proc.Process.trace_name_id ~a:p.Port.self ~b:0
      k_block_receive;
    Port.push_receiver p proc.Process.index;
    proc.Process.status <- Process.Blocked_receive p.Port.self);
  (match wait with
  | Syscall.Within ns ->
    proc.Process.deadline <- Some (cpu.Processor.clock_ns + ns)
  | Syscall.Block | Syscall.Poll -> ());
  cpu.Processor.current <- None

(* Injected port-delivery delay: charged once, at the next port syscall.
   One int compare when no injection is armed. *)
let consume_port_delay t =
  if t.pending_port_delay_ns > 0 then begin
    let d = t.pending_port_delay_ns in
    t.pending_port_delay_ns <- 0;
    charge t d
  end

(* Notify the scheduler port that [proc] entered or left the dispatching mix
   (§6.1).  Non-blocking: notifications overflowing the port are dropped. *)
let notify_scheduler t (proc : Process.t) =
  match proc.Process.scheduler_port with
  | None -> ()
  | Some port_index ->
    let p = Port.state_of_index t.table port_index in
    if not (Port.is_full p) then
      accept t p ~sender:None ~priority:proc.Process.priority
        (Access.make ~index:proc.Process.index ~rights:Rights.read_only)

let spawn t ?(priority = 8) ?(daemon = false) ?(system_level = 4)
    ?(name = "process") ?sro ?start_after body =
  let sro = match sro with Some s -> s | None -> t.global_sro in
  let access =
    Sro.allocate t.table sro ~data_length:0 ~access_length:8
      ~otype:Obj_type.Process
  in
  let e = Object_table.entry_of_access t.table access in
  let proc =
    {
      Process.index = e.Object_table.index;
      name;
      daemon;
      code = Process.Not_started body;
      status = Process.Created;
      stopped = false;
      priority;
      pending = Syscall.R_unit;
      deadline = None;
      cpu_ns = 0;
      slice_used_ns = 0;
      last_ready_ns = 0;
      trace_name_id = 0;
      system_level;
      affinity = None;
      scheduler_port = None;
      local_roots = [];
      call_depth = 0;
      contexts = [];
      dispatches = 0;
      preemptions = 0;
      blocks = 0;
      messages_sent = 0;
      messages_received = 0;
    }
  in
  proc.Process.trace_name_id <- Obs.Tracer.string_id t.obs name;
  e.Object_table.payload <- Some (Process.Process_state proc);
  t.processes <- proc :: t.processes;
  Obs.Metrics.incr t.mon.mon_spawns;
  emit t ~name ~a:proc.Process.index Obs.Event.Spawn;
  (match start_after with
  | None -> make_ready t proc
  | Some ns ->
    (* Delayed start (used by supervision backoff): park the fresh process
       as a sleeper; the run loop readies it when the delay elapses. *)
    if ns < 0 then invalid_arg "Machine.spawn: start_after";
    proc.Process.status <- Process.Sleeping;
    proc.Process.deadline <- Some (now t + ns));
  access

let process_state t access = Process.state_of t.table access

(* Kernel half of stop/start (§6.1): flip the in-mix bit.  iMAX's basic
   process manager keeps the nested counts and calls these on 0<->1
   transitions only. *)
let set_stopped t access stopped =
  let proc = Process.state_of t.table access in
  if proc.Process.stopped <> stopped then begin
    proc.Process.stopped <- stopped;
    if stopped then begin
      (match proc.Process.status with
      | Process.Ready -> Dispatch.remove t.dispatch ~process:proc.Process.index
      | Process.Created | Process.Running | Process.Blocked_send _
      | Process.Blocked_receive _ | Process.Sleeping | Process.Finished
      | Process.Faulted _ -> ());
      emit t ~name:proc.Process.name ~a:proc.Process.index Obs.Event.Stop
    end
    else begin
      (match proc.Process.status with
      | Process.Ready ->
        Dispatch.enqueue t.dispatch ~process:proc.Process.index
          ~priority:proc.Process.priority
      | Process.Created | Process.Running | Process.Blocked_send _
      | Process.Blocked_receive _ | Process.Sleeping | Process.Finished
      | Process.Faulted _ -> ());
      emit t ~name:proc.Process.name ~a:proc.Process.index Obs.Event.Start
    end;
    notify_scheduler t proc
  end

let set_priority t access priority =
  let proc = Process.state_of t.table access in
  proc.Process.priority <- priority;
  (* Re-sort the ready queue if the process is waiting in it. *)
  if Dispatch.mem t.dispatch ~process:proc.Process.index then begin
    Dispatch.remove t.dispatch ~process:proc.Process.index;
    Dispatch.enqueue t.dispatch ~process:proc.Process.index ~priority
  end

let set_scheduler_port t access port =
  let proc = Process.state_of t.table access in
  proc.Process.scheduler_port <- Some (Access.index port)

(* Bind the process to one processor (None lifts the binding).  The 432
   realized processor partitioning with multiple dispatching ports; this is
   the per-process equivalent in this model. *)
let set_affinity t access affinity =
  (match affinity with
  | Some id when id < 0 || id >= Array.length t.processors ->
    invalid_arg "Machine.set_affinity: no such processor"
  | Some _ | None -> ());
  let proc = Process.state_of t.table access in
  proc.Process.affinity <- affinity

(* GC root registration: explicit roots plus per-process shadow stacks. *)

let add_root t access = t.gc_roots <- access :: t.gc_roots

let remove_root t access =
  t.gc_roots <- List.filter (fun a -> not (Access.equal a access)) t.gc_roots

let roots t = t.gc_roots
let all_processes t = t.processes

(* ------------------------------------------------------------------ *)
(* Syscalls performed by process bodies                                *)
(* ------------------------------------------------------------------ *)

let send (_ : t) ~port ~msg = ignore (Syscall.send ~port ~msg Syscall.Block)
let receive (_ : t) ~port = Option.get (Syscall.receive ~port Syscall.Block)
let cond_send (_ : t) ~port ~msg = Syscall.send ~port ~msg Syscall.Poll
let cond_receive (_ : t) ~port = Syscall.receive ~port Syscall.Poll

let send_timeout (_ : t) ~port ~msg ~timeout_ns =
  Syscall.send ~port ~msg (Syscall.Within timeout_ns)

let receive_timeout (_ : t) ~port ~timeout_ns =
  Syscall.receive ~port (Syscall.Within timeout_ns)

let delay (_ : t) ~ns = ignore (Syscall.perform (Syscall.Delay ns))
let yield (_ : t) = ignore (Syscall.perform Syscall.Yield)

let exit_process (_ : t) =
  ignore (Syscall.perform Syscall.Exit);
  assert false

(* One atomic attempt at a multi-port transaction group; never blocks.
   Retry/abort policy lives above the kernel (I432_txn.Txn). *)
let txn_try t ~key ?(receives = []) ?(sends = []) ?(writes = []) () =
  (* Write targets are faulted in before the syscall.  Where no handler
     may run, and for a target evicted again in between, the kernel's
     validation reports the conflict [swapped]. *)
  (match usable_swap_handler t with
  | Some handler ->
    List.iter
      (fun (a, _, _) ->
        let i = Access.index a in
        if
          Object_table.is_valid t.table i
          && (Object_table.lookup t.table i).Object_table.swapped_out
        then handler a)
      writes
  | None -> ());
  match
    Syscall.perform
      (Syscall.Txn_try
         { t_key = key; t_receives = receives; t_sends = sends; t_writes = writes })
  with
  | Syscall.R_txn r -> r
  | Syscall.R_unit | Syscall.R_msg _ | Syscall.R_accepted _ -> assert false

(* ------------------------------------------------------------------ *)
(* The run loop                                                        *)
(* ------------------------------------------------------------------ *)

(* Eligibility for dispatch onto [cpu]: in the mix, ready, and (when the
   process carries a processor affinity) bound to this processor.  The 432
   realized such partitioning with multiple dispatching ports; a per-process
   binding is the equivalent observable behaviour in this model. *)
let eligible_for_dispatch t ~cpu index =
  let proc = proc_of t index in
  (not proc.Process.stopped)
  && proc.Process.status = Process.Ready
  &&
  match proc.Process.affinity with
  | None -> true
  | Some id -> id = cpu.Processor.id

(* ------------------------------------------------------------------ *)
(* Interconnect hooks (lib/net)                                        *)
(* ------------------------------------------------------------------ *)

(* These three entry points are the whole kernel surface the virtual
   interconnect needs: a node's NIC pump runs *between* run-loop slices
   (t.current = None), draining surrogate ports into frames and landing
   reconstructed messages in home ports.  Nothing here is reachable from a
   machine without a cluster around it, so runs without one are untouched. *)

(* Deliver [msg] into [port] from outside the run loop, waking a blocked
   receiver exactly as a local send would.  [false] when the queue is full
   (the NIC keeps the frame in its backlog and retries at the next pump). *)
let deliver_external t ?txn ~port ~msg ~priority () =
  let p = Port.state_of t.table port in
  if Port.is_full p then false
  else begin
    accept t p ~sender:None ?txn ~priority msg;
    true
  end

(* Withdraw up to [max] queued messages from [port] in service order — the
   NIC acting as the port's receiver, admitting parked senders exactly as
   a local receive would.  Returns [(msg, priority, enqueued_at, txn)] per
   message; [txn] is the committing transaction's idempotency key (0 = not
   transactional), which the interconnect carries across the wire for
   cluster-level dedup. *)
let drain_port t ?(max = max_int) ~port () =
  let p = Port.state_of t.table port in
  let rec go n acc =
    if n >= max then List.rev acc
    else
      match take t p ~taker:None with
      | Some qm ->
        go (n + 1)
          ((qm.Port.msg, qm.Port.msg_priority, qm.Port.enqueued_at, qm.Port.txn)
          :: acc)
      | None -> List.rev acc
  in
  go 0 []

(* Advance every *idle* processor's clock to [to_ns] (as idle time), so a
   message delivered with a frame-arrival stamp cannot be consumed in its
   own past.  Busy processors keep their own pace — the interconnect never
   rewrites time a processor has already spent. *)
let advance_idle_clocks t ~to_ns =
  Array.iter
    (fun (p : Processor.t) ->
      if
        p.Processor.online && p.Processor.current = None
        && p.Processor.clock_ns < to_ns
      then begin
        p.Processor.idle_ns <- p.Processor.idle_ns + (to_ns - p.Processor.clock_ns);
        p.Processor.clock_ns <- to_ns
      end)
    t.processors

(* Implement one syscall for the process running on [cpu].  Returns [true]
   when the process remains current (result delivered at next step), [false]
   when it was descheduled. *)
let handle_syscall t (cpu : Processor.t) (proc : Process.t) op =
  let tm = t.timings in
  match op with
  | Syscall.Yield ->
    charge t tm.Timings.dispatch_ns;
    emit_fast t ~name_id:proc.Process.trace_name_id ~a:0 ~b:0 k_yield;
    proc.Process.pending <- Syscall.R_unit;
    cpu.Processor.current <- None;
    requeue t proc;
    false
  | Syscall.Preempt ->
    charge t tm.Timings.dispatch_ns;
    proc.Process.pending <- Syscall.R_unit;
    proc.Process.slice_used_ns <- 0;
    proc.Process.preemptions <- proc.Process.preemptions + 1;
    t.preemptions <- t.preemptions + 1;
    Obs.Metrics.incr t.mon.mon_preemptions;
    emit_fast t ~name_id:proc.Process.trace_name_id ~a:0 ~b:0 k_preempt;
    cpu.Processor.current <- None;
    requeue t proc;
    false
  | Syscall.Exit ->
    proc.Process.status <- Process.Finished;
    proc.Process.code <- Process.Terminated;
    emit_fast t ~name_id:proc.Process.trace_name_id ~a:0 ~b:0 k_exit;
    cpu.Processor.current <- None;
    false
  | Syscall.Delay ns ->
    (* A negative delay is the caller's protocol error, faulted like any
       other bad operand (and so a panic below level 3). *)
    if ns < 0 then Fault.raise_fault (Fault.Protocol "delay: negative");
    emit_fast t ~name_id:proc.Process.trace_name_id ~a:ns ~b:0 k_sleep;
    proc.Process.pending <- Syscall.R_unit;
    proc.Process.status <- Process.Sleeping;
    proc.Process.deadline <- Some (cpu.Processor.clock_ns + ns);
    cpu.Processor.current <- None;
    false
  | Syscall.Send { port; msg; wait } ->
    Port.check_send_right port;
    let p = Port.state_of t.table port in
    charge t tm.Timings.send_ns;
    consume_port_delay t;
    if not (Port.is_full p) then begin
      accept t p ~sender:(Some proc) ~priority:proc.Process.priority msg;
      proc.Process.pending <- Syscall.R_accepted true;
      true
    end
    else if Syscall.polls wait then begin
      proc.Process.pending <- Syscall.R_accepted false;
      true
    end
    else begin
      (* Queue full: the sender waits at the port (§4). *)
      park t cpu proc p ~msg wait;
      false
    end
  | Syscall.Receive { port; wait } -> (
    Port.check_receive_right port;
    let p = Port.state_of t.table port in
    charge t tm.Timings.receive_ns;
    consume_port_delay t;
    match take t p ~taker:(Some proc) with
    | Some qm ->
      proc.Process.pending <- Syscall.R_msg (Some qm.Port.msg);
      true
    | None when Syscall.polls wait ->
      proc.Process.pending <- Syscall.R_msg None;
      true
    | None ->
      park t cpu proc p wait;
      false)
  | Syscall.Txn_try { t_key; t_receives; t_sends; t_writes } ->
    (* One atomic attempt at a multi-port group.  The whole syscall is
       serviced with [in_body = false], so nothing can preempt between
       validation and application: a group that validates commits at one
       virtual-time instant.  Never blocks; a conflict leaves every port
       and segment untouched and reports the first offender in
       deterministic (ascending object-index) order. *)
    let nr = List.length t_receives
    and ns = List.length t_sends
    and nw = List.length t_writes in
    (* Conflicts cost the same virtual time as commits, so a retry loop
       above the kernel consumes time and cannot livelock the clock. *)
    charge t
      ((tm.Timings.receive_ns * nr)
      + (tm.Timings.send_ns * ns)
      + (tm.Timings.write_word_ns * nw));
    consume_port_delay t;
    let recv_ports = List.map (fun a -> Port.state_of t.table a) t_receives in
    let send_ports =
      List.map (fun (a, m) -> (Port.state_of t.table a, m)) t_sends
    in
    List.iter Port.check_receive_right t_receives;
    List.iter (fun (a, _) -> Port.check_send_right a) t_sends;
    if t_key <> 0 && Hashtbl.mem t.txn_applied t_key then begin
      (* The key already committed (a retried group, e.g. after a lost
         completion).  Receives and writes must not re-apply; the sends
         are re-issued best-effort — the reply-cache semantics a retrier
         needs to get its completion (or returned tokens) again. *)
      List.iteri
        (fun i ((p : Port.t), msg) ->
          if not (Port.is_full p) then
            accept t p ~sender:(Some proc) ~txn:(t_key + i)
              ~priority:proc.Process.priority msg)
        send_ports;
      Obs.Metrics.incr (Obs.Metrics.counter t.metrics "txn.dup_drops");
      emit t ~name:proc.Process.name ~a:t_key ~b:0 Obs.Event.Txn_dup_drop;
      proc.Process.pending <-
        Syscall.R_txn
          (Syscall.Txn_committed
             { received = []; commit_ns = cpu.Processor.clock_ns; fresh = false });
      true
    end
    else begin
      (* Validation, ascending object-index order.  Per port, a group may
         take at most the queued messages ([receives_from] — blocked
         senders do not rendezvous with a transaction) and may add at most
         the space its own receives free up, plus direct handoffs to
         blocked receivers. *)
      let module IM = Map.Make (Int) in
      let bump m idx = IM.update idx (fun n -> Some (Option.value n ~default:0 + 1)) m in
      let recvs_by_port =
        List.fold_left (fun m (p : Port.t) -> bump m p.Port.self) IM.empty recv_ports
      in
      let sends_by_port =
        List.fold_left
          (fun m ((p : Port.t), _) -> bump m p.Port.self)
          IM.empty send_ports
      in
      let port_by_index =
        List.fold_left
          (fun m ((p : Port.t), _) -> IM.add p.Port.self p m)
          (List.fold_left
             (fun m (p : Port.t) -> IM.add p.Port.self p m)
             IM.empty recv_ports)
          send_ports
      in
      let conflict = ref None in
      IM.iter
        (fun idx (p : Port.t) ->
          if !conflict = None then begin
            let wants = Option.value (IM.find_opt idx recvs_by_port) ~default:0 in
            let puts = Option.value (IM.find_opt idx sends_by_port) ~default:0 in
            let queued = Port.queue_length p in
            if wants > queued then conflict := Some (idx, "empty")
            else if
              puts
              > p.Port.capacity - queued + wants
                + Queue.length p.Port.receivers
            then conflict := Some (idx, "full")
          end)
        port_by_index;
      (* Write targets validate after the ports; apply cannot fault. *)
      List.iter
        (fun (a, offset, _) ->
          if !conflict = None then begin
            let e = Object_table.entry_of_access t.table a in
            if not (Rights.has_write (Access.rights a)) then
              conflict := Some (e.Object_table.index, "rights")
            else if e.Object_table.swapped_out then
              conflict := Some (e.Object_table.index, "swapped")
            else if offset < 0 || offset + 4 > e.Object_table.data_length then
              conflict := Some (e.Object_table.index, "bounds")
          end)
        t_writes;
      match !conflict with
      | Some (port, reason) ->
        Obs.Metrics.incr (Obs.Metrics.counter t.metrics "txn.conflicts");
        proc.Process.pending <-
          Syscall.R_txn (Syscall.Txn_conflict { port; reason });
        true
      | None ->
        (* Apply: receives, then writes, then sends, all at this instant.
           Blocked senders are admitted only after the group's own sends
           have claimed their space. *)
        let received =
          List.map
            (fun p ->
              match dequeue t p ~taker:(Some proc) with
              | Some qm -> qm.Port.msg
              | None -> assert false (* validated: queued >= wants *))
            recv_ports
        in
        List.iter
          (fun (a, offset, v) -> Segment.write_i32 t.table t.memory a ~offset v)
          t_writes;
        (* The i-th send of group [k] is tagged [k + i]: each logical
           send gets its own idempotency tag, so cluster-level dedup can
           drop a re-issued copy without confusing two sends of the same
           group bound for one node.  Key allocation (I432_txn.Txn)
           strides keys far enough apart for the offsets. *)
        List.iteri
          (fun i (p, msg) ->
            accept t p ~sender:(Some proc)
              ~txn:(if t_key = 0 then 0 else t_key + i)
              ~priority:proc.Process.priority msg)
          send_ports;
        (* Space the receives freed (net of the group's sends) admits
           parked senders, in ascending port order. *)
        IM.iter
          (fun _ p ->
            let rec fill () =
              if not (Port.is_full p) then
                match Port.pop_sender p with
                | Some ws ->
                  admit t p ws;
                  fill ()
                | None -> ()
            in
            fill ())
          port_by_index;
        if t_key <> 0 then Hashtbl.replace t.txn_applied t_key ();
        Obs.Metrics.incr (Obs.Metrics.counter t.metrics "txn.commits");
        emit t ~name:proc.Process.name ~a:t_key ~b:(nr + ns + nw)
          Obs.Event.Txn_commit;
        proc.Process.pending <-
          Syscall.R_txn
            (Syscall.Txn_committed
               {
                 received;
                 commit_ns = cpu.Processor.clock_ns;
                 fresh = true;
               });
        true
    end

(* Record a fault in a user process; faults below system level 3 are fatal
   to the whole machine (§7.3: such processes "are in general not permitted
   to fault").  When a fault port is configured, the process object is sent
   there so a supervisor can inspect the corpse — the hardware "sending
   them back to software when various fault ... conditions arise" (§5). *)
let record_fault t (proc : Process.t) cause =
  t.faults <- (proc.Process.name, cause) :: t.faults;
  Obs.Metrics.incr t.mon.mon_faults;
  emit t ~name:proc.Process.name ~detail:(Fault.to_string cause)
    Obs.Event.Fault;
  proc.Process.status <- Process.Faulted cause;
  proc.Process.code <- Process.Terminated;
  if proc.Process.system_level < 3 then
    raise
      (Kernel_panic
         (Printf.sprintf "process %s at system level %d faulted: %s"
            proc.Process.name proc.Process.system_level
            (Fault.to_string cause)));
  (match t.fault_port with
  | None -> ()
  | Some port_index -> (
    match Port.state_of_index t.table port_index with
    | p when not (Port.is_full p) ->
      accept t p ~sender:None ~priority:proc.Process.priority
        (Access.make ~index:proc.Process.index ~rights:Rights.read_only)
    | _ -> ()
    | exception Fault.Fault _ -> ()));
  (* Supervision hook (process manager restart policies): runs after the
     corpse is routed, and only for faults the machine survives. *)
  match t.fault_hook with None -> () | Some hook -> hook proc cause

(* Execute one step of the process current on [cpu]. *)
let step_process t (cpu : Processor.t) =
  match cpu.Processor.current with
  | None -> ()
  | Some index ->
    let proc = proc_of t index in
    t.current <- Some cpu;
    t.in_body <- true;
    let outcome = Process.step proc in
    t.in_body <- false;
    t.current <- None;
    (match outcome with
    | Process.Completed ->
      proc.Process.status <- Process.Finished;
      cpu.Processor.current <- None;
      emit_fast_on t cpu ~name_id:proc.Process.trace_name_id ~a:0 ~b:0 k_finish
    | Process.Raised (Fault.Fault cause) ->
      cpu.Processor.current <- None;
      record_fault t proc cause
    | Process.Raised e ->
      cpu.Processor.current <- None;
      record_fault t proc (Fault.Protocol (Printexc.to_string e))
    | Process.Pending (op, k) -> (
      proc.Process.code <- Process.Suspended k;
      t.current <- Some cpu;
      (* Faults detected while servicing the syscall (rights, types) are
         the faulting process's own. *)
      match handle_syscall t cpu proc op with
      | still_current ->
        t.current <- None;
        if still_current then ()
        else
          emit_on t cpu ~name:proc.Process.name
            ~detail:(Syscall.op_to_string op) Obs.Event.Deschedule
      | exception Fault.Fault cause ->
        t.current <- None;
        cpu.Processor.current <- None;
        record_fault t proc cause))

(* ------------------------------------------------------------------ *)
(* Processor failure and injection plans                               *)
(* ------------------------------------------------------------------ *)

(* Hard-fault one GDP (paper §6: iMAX "adapts at system initialization to
   the number of processors"; here the set also shrinks at run time).  The
   processor goes offline forever; the process it was running — suspended
   at an instruction boundary with its pending result intact — re-enters
   the dispatching mix, and any processor bindings to the dead GDP are
   lifted: a binding dies with its processor.  The system degrades to N−1
   processors instead of panicking. *)
let fail_processor t id =
  if id < 0 || id >= Array.length t.processors then
    invalid_arg "Machine.fail_processor: no such processor";
  let cpu = t.processors.(id) in
  if cpu.Processor.online then begin
    cpu.Processor.online <- false;
    Obs.Metrics.incr t.mon.mon_cpu_offline;
    emit_on t cpu ~a:id Obs.Event.Cpu_offline;
    (match cpu.Processor.current with
    | Some pi ->
      cpu.Processor.current <- None;
      let proc = proc_of t pi in
      proc.Process.slice_used_ns <- 0;
      proc.Process.affinity <- None;
      Obs.Metrics.incr t.mon.mon_requeues;
      emit_on t cpu ~name:proc.Process.name ~a:pi ~b:id
        Obs.Event.Proc_requeued;
      requeue t proc
    | None -> ());
    List.iter
      (fun (proc : Process.t) ->
        match proc.Process.affinity with
        | Some a when a = id -> proc.Process.affinity <- None
        | Some _ | None -> ())
      t.processes
  end

let schedule_injection t ~at_ns inj =
  if at_ns < 0 then invalid_arg "Machine.schedule_injection: at_ns";
  let seq = t.inj_seq in
  t.inj_seq <- seq + 1;
  let entry = (at_ns, seq, inj) in
  (* Sorted insert by (time, registration order): plans are small and
     armed before the run, so O(n) insertion is irrelevant. *)
  let rec ins = function
    | [] -> [ entry ]
    | ((a, s, _) as hd) :: tl ->
      if at_ns < a || (at_ns = a && seq < s) then entry :: hd :: tl
      else hd :: ins tl
  in
  t.injections <- ins t.injections

let apply_injection t = function
  | Inj_cpu_fault id ->
    if id >= 0 && id < Array.length t.processors then fail_processor t id
  | Inj_transient id ->
    if id >= 0 && id < Array.length t.processors then
      t.processors.(id).Processor.transient_pending <- true
  | Inj_alloc_fault n -> t.forced_alloc_faults <- t.forced_alloc_faults + n
  | Inj_port_delay ns ->
    t.pending_port_delay_ns <- t.pending_port_delay_ns + ns

(* The not-yet-fired part of an armed plan, in firing order.  The
   checkpoint facility folds this (and the armed one-shot counters) into
   the machine's state image so a restored run faces the same remaining
   chaos as the original. *)
let pending_injections t = List.map (fun (at, _, inj) -> (at, inj)) t.injections
let armed_alloc_faults t = t.forced_alloc_faults
let armed_port_delay_ns t = t.pending_port_delay_ns

(* Fire every injection whose instant has been reached by the processor
   the run loop is about to advance.  Events are stamped on that
   processor's clock, in (time, registration) order — deterministic. *)
let fire_injections t (cpu : Processor.t) =
  let rec go () =
    match t.injections with
    | (at, _, inj) :: rest when at <= cpu.Processor.clock_ns ->
      t.injections <- rest;
      t.current <- Some cpu;
      Obs.Metrics.incr t.mon.mon_injections;
      emit t
        ~detail:(injection_to_string inj)
        ~a:(injection_arg inj) Obs.Event.Fi_inject;
      apply_injection t inj;
      t.current <- None;
      go ()
    | _ -> ()
  in
  go ()

(* Fire every armed deadline [horizon] has reached, in process-list
   order.  A sleeper wakes into the mix.  A [Within] waiter is withdrawn
   from its port's blocked queue (a sender with its parked message) and
   resumed with the give-up result. *)
let fire_deadlines t ~horizon =
  List.iter
    (fun (proc : Process.t) ->
      match proc.Process.deadline with
      | Some d when d <= horizon -> (
        proc.Process.deadline <- None;
        let give_up pi ~receiving result =
          Obs.Metrics.incr t.mon.mon_timeouts;
          emit t ~name:proc.Process.name ~a:pi ~b:receiving
            Obs.Event.Timeout_fired;
          resume t proc result
        in
        let index = proc.Process.index in
        match proc.Process.status with
        | Process.Sleeping ->
          emit_fast t ~name_id:proc.Process.trace_name_id ~a:0 ~b:0 k_wake;
          requeue t proc
        | Process.Blocked_send pi ->
          ignore (Port.remove_sender (Port.state_of_index t.table pi) ~index);
          give_up pi ~receiving:0 (Syscall.R_accepted false)
        | Process.Blocked_receive pi ->
          ignore (Port.remove_receiver (Port.state_of_index t.table pi) ~index);
          give_up pi ~receiving:1 (Syscall.R_msg None)
        | Process.Created | Process.Ready | Process.Running | Process.Finished
        | Process.Faulted _ -> ())
      | Some _ | None -> ())
    t.processes

(* The online processor with the smallest clock (ties by id), or [None]
   when every GDP has hard-faulted. *)
let min_clock_processor t =
  Array.fold_left
    (fun acc p ->
      if not p.Processor.online then acc
      else
        match acc with
        | None -> Some p
        | Some best ->
          if p.Processor.clock_ns < best.Processor.clock_ns then Some p
          else acc)
    None t.processors

(* Is there any process that could still make progress without external
   input?  Daemons alone do not keep the machine running.  A process
   blocked with an armed deadline will resume at the latest when the
   deadline fires, so it still counts. *)
let pending_user_work t =
  List.exists
    (fun (proc : Process.t) ->
      (not proc.Process.daemon)
      &&
      match proc.Process.status with
      | Process.Running -> true
      | Process.Ready | Process.Sleeping | Process.Created ->
        not proc.Process.stopped
      | Process.Blocked_send _ | Process.Blocked_receive _ ->
        proc.Process.deadline <> None
      | Process.Finished | Process.Faulted _ -> false)
    t.processes

(* Can [cpu] dispatch some ready process?  The status test comes first:
   [eligible_for_dispatch] looks the process up in the object table, and
   the collector may have reclaimed the objects of finished processes. *)
let has_ready t (cpu : Processor.t) =
  cpu.Processor.online
  && List.exists
       (fun (proc : Process.t) ->
         proc.Process.status = Process.Ready
         && eligible_for_dispatch t ~cpu proc.Process.index)
       t.processes

(* The machine has drained: no user process can make progress and no
   processor has anything to run. *)
let drained t =
  (not (pending_user_work t))
  && not
       (Array.exists
          (fun p ->
            (p.Processor.online && p.Processor.current <> None) || has_ready t p)
          t.processors)

(* The earliest instant after [cpu]'s clock at which anything can happen
   to it, or [None] when nothing ever can.  Sources: a process deadline,
   and every other processor that is busy or has a ready process it may
   dispatch.  Another processor's clock may equal ours (we are the
   minimum); stepping just past it lets that processor run first, so a
   process bound to it is its event, not ours. *)
let next_event t (cpu : Processor.t) =
  let now = cpu.Processor.clock_ns in
  let earliest acc c =
    if c <= now then acc
    else match acc with Some a when a <= c -> acc | Some _ | None -> Some c
  in
  let deadline =
    List.fold_left
      (fun acc (proc : Process.t) ->
        match proc.Process.deadline with Some d -> earliest acc d | None -> acc)
      None t.processes
  in
  Array.fold_left
    (fun acc (p : Processor.t) ->
      if
        p.Processor.id <> cpu.Processor.id
        && (p.Processor.current <> None || has_ready t p)
      then earliest acc (p.Processor.clock_ns + 1)
      else acc)
    deadline t.processors

let run_loop ?(max_ns = max_int) ?(max_steps = max_int) t =
  let steps = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr steps;
    if !steps > max_steps then continue_ := false
    else begin
      match min_clock_processor t with
      | None ->
        (* Every GDP has hard-faulted: nothing can execute. *)
        continue_ := false
      | Some cpu ->
      if cpu.Processor.clock_ns > max_ns then continue_ := false
      else begin
        (* Scheduled injections whose instant this processor has reached
           fire first — one empty-list check when no plan is armed.  The
           injection may take this very processor offline, in which case
           the iteration ends here and the next-smallest clock runs. *)
        if t.injections <> [] then fire_injections t cpu;
        if not cpu.Processor.online then begin
          if drained t then continue_ := false
        end
        else begin
        (* Wake (and ready) events are stamped on the waking processor. *)
        t.current <- Some cpu;
        fire_deadlines t ~horizon:cpu.Processor.clock_ns;
        t.current <- None;
        (match cpu.Processor.current with
        | Some _ -> step_process t cpu
        | None -> (
          match
            Dispatch.pop t.dispatch ~eligible:(eligible_for_dispatch t ~cpu)
          with
          | Some index ->
            let proc = proc_of t index in
            proc.Process.status <- Process.Running;
            proc.Process.slice_used_ns <- 0;
            proc.Process.dispatches <- proc.Process.dispatches + 1;
            cpu.Processor.current <- Some index;
            cpu.Processor.dispatches <- cpu.Processor.dispatches + 1;
            Obs.Metrics.incr t.mon.mon_dispatches;
            Obs.Metrics.observe_log t.mon.mon_dispatch_latency
              (float_of_int
                 (max 0 (cpu.Processor.clock_ns - proc.Process.last_ready_ns)));
            Obs.Metrics.set t.mon.mon_ready_len (Dispatch.length t.dispatch);
            emit_fast_on t cpu ~name_id:proc.Process.trace_name_id
              ~a:cpu.Processor.id ~b:0 k_dispatch;
            t.current <- Some cpu;
            charge t t.timings.Timings.dispatch_ns;
            t.current <- None
          | None -> (
            (* Idle: advance this processor's clock to its next event. *)
            match next_event t cpu with
            | None ->
              (* No event can ever reach this processor: the machine is
                 drained (or every remaining process is blocked). *)
              continue_ := false
            | Some target ->
              (* Never idle past the caller's horizon: the bound check at
                 the top of the loop must fire at the bound, not at some
                 distant wake time. *)
              let target =
                if max_ns < max_int && target > max_ns then max_ns + 1
                else target
              in
              cpu.Processor.idle_ns <-
                cpu.Processor.idle_ns + (target - cpu.Processor.clock_ns);
              cpu.Processor.clock_ns <- target)));
        (* Halt when no user process can make progress any more. *)
        if drained t then continue_ := false
        end
      end
    end
  done;
  let completed =
    List.length
      (List.filter
         (fun (p : Process.t) -> p.Process.status = Process.Finished)
         t.processes)
  in
  let faulted =
    List.length
      (List.filter
         (fun (p : Process.t) ->
           match p.Process.status with Process.Faulted _ -> true | _ -> false)
         t.processes)
  in
  let deadlocked =
    List.filter_map
      (fun (p : Process.t) ->
        match p.Process.status with
        | Process.Blocked_send _ | Process.Blocked_receive _ ->
          Some p.Process.name
        | _ -> None)
      t.processes
  in
  {
    elapsed_ns = now t;
    completed;
    faulted;
    deadlocked;
    dispatches = Dispatch.dispatches_of t.dispatch;
    preemptions = t.preemptions;
  }

(* Stepping is exclusive: mark the machine (and claim its metrics
   registry) for the calling domain, run, then release.  Two overlapping
   [run] calls from different domains — a broken parallel-engine
   partition — fail loudly here rather than corrupting state. *)
let run ?max_ns ?max_steps t =
  let self = (Stdlib.Domain.self () :> int) in
  (match t.stepper with
  | Some d when d <> self ->
    failwith
      (Printf.sprintf "Machine.run: machine is being stepped by domain %d" d)
  | Some _ | None -> ());
  t.stepper <- Some self;
  Obs.Metrics.claim t.metrics;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.release t.metrics;
      t.stepper <- None)
    (fun () -> run_loop ?max_ns ?max_steps t)

(* Total busy time across processors: the "total processing power" metric of
   the scaling experiment. *)
let total_busy_ns t =
  Array.fold_left (fun acc p -> acc + p.Processor.busy_ns) 0 t.processors

let processor_utilizations t =
  Array.map Processor.utilization t.processors
