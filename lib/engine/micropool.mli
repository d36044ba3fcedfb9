(** Shard micropools: pinned worker domains for stage groups.

    [k] worker domains serve stage groups submitted while the pool runs.
    A submitted group is assigned to exactly one worker and never
    migrates, so every single-owner invariant its stages rely on
    (OWNERSHIP.md) sees one writing domain; each worker steps all the
    groups it holds one {!Pipeline.step} round at a time, backing off
    with {!Backoff} when none of them progresses.  A long-lived service
    (pint_serve) submits one lease per session, and tests that replay a
    trace onto real domains submit one lease and {!shutdown} the pool
    after it.  [Par_exec] keeps no pool: each of its stage groups is held
    by one worker of the run, which also runs strands.  See DESIGN.md
    §14.3. *)

type shared

(** A submission handle: the stage groups of one tenant. *)
type lease

(** [shared k] spawns [k] worker domains.
    @raise Invalid_argument if [k < 1]. *)
val shared : int -> shared

(** [submit ?notify sh groups] assigns each group to the least-loaded
    worker, ties going round-robin from worker 0, so on a fresh pool of
    [k] workers [k] groups land one per worker in order.  The groups'
    stages must not be driven by anyone else from this point; they run
    until each reports [`Done] (for a detector: after its run's [on_done]
    has fired and its access-history queue drained).

    [notify] (default: nothing) is the lease's completion event.  It is
    called exactly once, by the worker domain that retires the lease's
    last group, after {!lease_done} has become true; it is never called
    when [groups] is empty, since that lease is done already.  It runs on
    that pool worker, between the stage steps of every group the worker
    holds, so it must neither block nor raise: wake the waiter (write a
    byte to a non-blocking pipe, signal a condition) and return.
    @raise Invalid_argument after {!shutdown} has begun. *)
val submit : ?notify:(unit -> unit) -> shared -> Stage.t list list -> lease

(** True once every stage of the lease has reported [`Done]. *)
val lease_done : lease -> bool

(** Spin (with {!Backoff}) until {!lease_done}. *)
val await : lease -> unit

(** Stop and join every worker.  All outstanding leases must be able to
    finish (sessions ended or aborted): workers exit only when their
    assigned groups are done. *)
val shutdown : shared -> unit

(** Park episodes summed over shared workers (idle diagnostics). *)
val shared_parks : shared -> int
