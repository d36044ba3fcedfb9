(** Shard micropools: one pinned domain per stage group.

    Each pool domain cooperatively round-robins its own stages (for PINT,
    one shard's {writer, lreader, rreader} treap triple) until all report
    [`Done], backing off with {!Backoff} when the whole group is
    unproductive.  Stages never migrate between domains, preserving every
    single-owner invariant they rely on (OWNERSHIP.md).  See DESIGN.md
    §13. *)

type t

(** [spawn ?rings groups] — one domain per group.  [rings.(i)], when
    given, is pool [i]'s observability track (park events are emitted into
    it from the pool's own domain). *)
val spawn : ?rings:Evring.t array -> Stage.t list list -> t

(** Wait for every pool domain; returns once all stages are [`Done]. *)
val join : t -> unit

val n_pools : t -> int

(** Deep-backoff park episodes, summed over pools (idle diagnostics). *)
val parks : t -> int

(** {2 Shared pools}

    Multi-tenant variant for long-lived services (pint_serve): [k] worker
    domains outlive any one detector, and stage groups are submitted while
    the pool runs.  A submitted group is assigned to exactly one worker
    and never migrates — the same pinning discipline as {!spawn}, so every
    single-owner invariant still sees one writing domain — and each worker
    round-robins all the groups currently assigned to it.  See DESIGN.md
    §14. *)

type shared

(** A submission handle: the stage groups of one tenant. *)
type lease

(** [shared ?rings k] spawns [k] long-lived worker domains.  [rings.(i)]
    is worker [i]'s obs track for park events. *)
val shared : ?rings:Evring.t array -> int -> shared

(** [submit ?notify sh groups] assigns each group to the least-loaded
    worker.  The groups' stages must not be driven by anyone else from
    this point; they run until each reports [`Done] (for a detector: after
    its run's [on_done] has fired and its lanes drained).

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
