(* A fork-join pool of OCaml 5 domains for the parallel cluster engine.

   The cluster's conservative rounds need exactly one primitive: "run
   [tasks] independent closures, wait for all of them".  This module
   provides it with [domains - 1] long-lived worker domains plus the
   calling domain, which participates in every batch rather than blocking
   — so [Par 1] degenerates to a plain sequential loop with zero spawns,
   and [Par n] costs n - 1 spawns for the lifetime of the pool, not per
   round.

   Handoff is lock-free on the fast path.  Posting a batch is one atomic
   store of the batch record (its [gen] is the generation counter);
   participants claim task indices with an atomic fetch-and-add, and the
   one that finishes the last task is the one that signals completion.
   A waiting side — a worker between batches, the caller waiting for the
   stragglers — first spins for a bounded number of polls, then parks on
   its own condition variable, so finishing a batch never wakes the
   workers parked for the next one.  Parking registers in the signal's
   [parked] count under the lock before re-checking its predicate, and
   every waker publishes its state change before reading that count, so
   a wake-up can never fall between a sleeper's check and its wait.
   Spinning is used only while every domain of the pool can have a core
   of its own: on an oversubscribed host a spinning domain steals the
   very core the domain it waits for needs, so there the pool parks at
   once.

   Tasks are independent by contract (each steps a distinct machine), so
   claim order cannot affect results — which is what keeps parallel
   rounds bit-identical to sequential ones.

   Exceptions: every failure is caught and recorded with its task index;
   after the barrier the failure with the LOWEST index is re-raised on
   the caller's domain.  Lowest-index (not first-observed) keeps the
   reported error deterministic under scheduling noise. *)

(* The kernel models the iMAX *domain of definition* in I432.Domain; the
   OCaml 5 runtime's unit of parallelism is Stdlib.Domain.  This alias
   keeps the two apart everywhere the net library touches real
   parallelism (see DESIGN.md §11). *)
module Odomain = Stdlib.Domain

type batch = {
  gen : int;  (* generation: one more than the batch posted before *)
  fn : int -> unit;
  tasks : int;
  next : int Atomic.t;  (* next unclaimed task index *)
  remaining : int Atomic.t;  (* tasks not yet finished *)
  failures : (int * exn) list Atomic.t;
}

(* One condition domains park on, with the count of those parked (or
   about to park) on it. *)
type signal = { parked : int Atomic.t; cond : Condition.t }

type t = {
  domains : int;
  spin_limit : int;  (* polls before parking; 0 on an oversubscribed host *)
  posted : batch Atomic.t;  (* the latest batch *)
  stop : bool Atomic.t;
  lock : Mutex.t;
  work_posted : signal;  (* workers: a new batch, or stop *)
  batch_done : signal;  (* caller: the last task of its batch finished *)
  mutable workers : unit Odomain.t list;
}

(* About 0.7 ms of polling on a 2-core Xeon (35 ns a poll): it bridges
   the gap between two cluster rounds, in which the caller runs the
   interconnect pump alone, while a worker left idle for longer soon
   gives its core back. *)
let spin_polls = 20_000

let domains t = t.domains

let signal () = { parked = Atomic.make 0; cond = Condition.create () }

(* Wake every domain parked on [s].  Callers publish their state change
   first. *)
let notify t s =
  if Atomic.get s.parked > 0 then begin
    Mutex.lock t.lock;
    Condition.broadcast s.cond;
    Mutex.unlock t.lock
  end

(* Return once [ready ()] holds: poll it up to [t.spin_limit] times, then
   park on [s] until notified. *)
let await t s ready =
  let rec spin k =
    if ready () then true
    else if k = 0 then false
    else begin
      Odomain.cpu_relax ();
      spin (k - 1)
    end
  in
  if not (spin t.spin_limit) then begin
    Mutex.lock t.lock;
    Atomic.incr s.parked;
    while not (ready ()) do
      Condition.wait s.cond t.lock
    done;
    Atomic.decr s.parked;
    Mutex.unlock t.lock
  end

let rec record_failure b i e =
  let l = Atomic.get b.failures in
  if not (Atomic.compare_and_set b.failures l ((i, e) :: l)) then
    record_failure b i e

(* Claim and run tasks from [b] until none are left. *)
let rec participate t b =
  let i = Atomic.fetch_and_add b.next 1 in
  if i < b.tasks then begin
    (try (b.fn i : unit) with e -> record_failure b i e);
    if Atomic.fetch_and_add b.remaining (-1) = 1 then notify t t.batch_done;
    participate t b
  end

(* A worker joins every batch posted after the last one it saw.  Starting
   from generation 0 (the empty batch [create] posts), a worker that
   starts late still joins the batch already in flight. *)
let worker_loop t =
  let rec loop seen =
    await t t.work_posted (fun () ->
        (Atomic.get t.posted).gen <> seen || Atomic.get t.stop);
    if not (Atomic.get t.stop) then begin
      let b = Atomic.get t.posted in
      participate t b;
      loop b.gen
    end
  in
  loop 0

let make_batch gen fn tasks =
  {
    gen;
    fn;
    tasks;
    next = Atomic.make 0;
    remaining = Atomic.make tasks;
    failures = Atomic.make [];
  }

let create ~domains =
  if domains < 1 then invalid_arg "Par_exec.create: domains";
  let t =
    {
      domains;
      spin_limit =
        (if domains <= Odomain.recommended_domain_count () then spin_polls
         else 0);
      posted = Atomic.make (make_batch 0 ignore 0);
      stop = Atomic.make false;
      lock = Mutex.create ();
      work_posted = signal ();
      batch_done = signal ();
      workers = [];
    }
  in
  t.workers <-
    List.init (domains - 1) (fun _ -> Odomain.spawn (fun () -> worker_loop t));
  t

let run t ~tasks fn =
  if tasks < 0 then invalid_arg "Par_exec.run: tasks";
  if tasks > 0 then begin
    let b = make_batch ((Atomic.get t.posted).gen + 1) fn tasks in
    Atomic.set t.posted b;
    notify t t.work_posted;
    (* The caller is a participant, not a spectator. *)
    participate t b;
    await t t.batch_done (fun () -> Atomic.get b.remaining = 0);
    match List.sort compare (Atomic.get b.failures) with
    | (_, e) :: _ -> raise e
    | [] -> ()
  end

let shutdown t =
  Atomic.set t.stop true;
  notify t t.work_posted;
  List.iter Odomain.join t.workers;
  t.workers <- []
