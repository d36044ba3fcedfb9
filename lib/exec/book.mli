(** The strand protocol, shared by every strand walk.

    Both fiber-based executors ({!Sim_exec}, {!Par_exec}) run the same
    Cilk-style continuation-stealing protocol through this module: its
    frames and parked continuations, its spawn, sync, fiber-end and
    post-steal handlers with Algorithm 1's [u.child] / [pred] bookkeeping
    (so the writer treap worker can later check strand readiness,
    Algorithm 2), and the {!Fj} engine user code calls.  An executor
    supplies only a {!sched}: who the current worker is, what happens
    around a boundary hook, and its deque's owner end.  The replay walk
    shares {!spawn}.  Kept in one place so the executors and the replay
    walk cannot drift apart.

    The join protocol takes a per-frame lock around the outstanding-child
    count and the suspended-continuation hand-off (uncontended under the
    simulator); the steal path is the scheduler's and takes no lock here. *)

(** [spawn sp ~fresh ~u ~sync] is the spawn step of strand [u] in a sync
    block whose sync record is [sync] ([None] at the block's first spawn).
    It extends the SP order, makes the continuation's record, at a first
    spawn the block's sync record, and the spawned child's record — in
    that order, through [fresh] — and links [u] to the continuation.
    Returns the continuation, sync and child records, which the caller's
    {!Events.F_spawn} carries. *)
val spawn :
  Sp_order.t ->
  fresh:(Sp_order.strand -> Srec.t) ->
  u:Srec.t ->
  sync:Srec.t option ->
  Srec.t * Srec.t * Srec.t

(** A function activation's sync-block state. *)
type frame

(** A suspended continuation with its frame: parked at a spawn on its
    worker's deque, until the returning child pops it or a thief takes
    it, or waiting at a sync for the last child to return. *)
type parked

(** Whose fiber a worker runs: the root's or a spawned child's. *)
type fiber_done

type job

(** A core worker: the protocol's part, and the scheduler's own state
    [sched].  Only this module writes the protocol's part. *)
type 's worker = private {
  wid : int;
  mutable job : job option;  (** what the worker runs next *)
  mutable fid : fiber_done;
  mutable frame : frame;
  mutable cur : Srec.t;  (** the record of the strand it executes *)
  sched : 's;
}

(** What a scheduler supplies. *)
type 's sched = {
  self : unit -> 's worker;  (** the worker executing the caller *)
  start : wid:int -> Srec.t -> Events.start_kind -> unit;
      (** a strand starts: at least the driver's [on_start] *)
  finish : wid:int -> Srec.t -> Events.finish_kind -> unit;
      (** a strand ends: at least the driver's [on_finish] *)
  push : 's worker -> parked -> unit;  (** park at the worker's own deque end *)
  pop : 's worker -> parked option;  (** unpark from the same end *)
}

(** One run of the protocol. *)
type 's t

(** [create ~driver ~n_workers init mk_sched] sets up a run: its address
    space, SP order and root record (uid 1; every later record is numbered
    in creation order from 2), [n_workers] workers in fresh root frames
    with scheduler state [init ~inert wid], the [driver]'s hooks and the
    scheduler [mk_sched hooks workers].  [inert] is a parked continuation
    no one resumes, for deques that fill vacated slots; forced by [init]
    if at all, and freed by {!release}.
    @raise Invalid_argument on fewer than one worker or more than
    {!Aspace.max_workers}. *)
val create :
  driver:Hooks.driver ->
  n_workers:int ->
  (inert:parked Lazy.t -> int -> 's) ->
  (Hooks.t -> 's worker array -> 's sched) ->
  's t

val workers : 's t -> 's worker array
val hooks : 's t -> Hooks.t

(** Free the inert continuation's fiber stack, if [init] forced it.  Call
    it once, after the run, when no deque is used any more. *)
val release : 's t -> unit

(** The {!Fj} engine of the run: spawn, sync, scope and with_frame as the
    protocol defines them. *)
val engine : 's t -> Fj.engine

(** [launch t main] fires the root strand's start hook and gives worker 0
    [main] to run, ending in the implicit sync every body ends in. *)
val launch : 's t -> (unit -> unit) -> unit

(** [exec t w j] runs [w]'s job [j] to its fiber's next suspension and
    handles a spawn or a sync there; [true] iff the fiber finished, in
    which case the scheduler owes {!fiber_end}. *)
val exec : 's t -> 's worker -> job -> bool

(** The end of [w]'s fiber: the root's ends the run; a child's pops its
    continuation back, or, when a thief took it, counts the return into
    the parent's join and passes a suspended sync if it was the last. *)
val fiber_end : 's t -> 's worker -> unit

(** [steal t w p]: [w] took [p] off another worker's deque and resumes
    it. *)
val steal : 's t -> 's worker -> parked -> unit

(** The root fiber has ended. *)
val finished : 's t -> bool

val n_strands : 's t -> int
val n_spawns : 's t -> int
val n_nontrivial_syncs : 's t -> int
