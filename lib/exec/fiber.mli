(** The strand decomposition shared by the fiber-based executors
    ({!Sim_exec}, {!Par_exec}).

    User code runs inside a fiber; [spawn] and [sync] suspend it and hand
    the executor a {!status} to schedule: the spawned function and the
    continuation to park, or the continuation waiting at the sync.  The
    executor decides where and when a continuation {!resume}s — on the same
    worker, on a thief, or on the last child to return. *)

type status =
  | Finished  (** the fiber's function returned *)
  | Spawned of (unit -> unit) * kont  (** spawned function, continuation *)
  | Synced of kont  (** continuation after the sync *)

and kont = (unit, status) Effect.Deep.continuation

(** [run g] starts [g] as a fiber and runs it to its first suspension. *)
val run : (unit -> unit) -> status

(** [resume k] runs a suspended fiber to its next suspension. *)
val resume : kont -> status

(** [discard k] ends a suspended fiber that will never be resumed, which
    frees its stack: an unresumed continuation keeps it for the life of
    the process. *)
val discard : kont -> unit

(** Suspend the running fiber at a spawn of [f].  Only inside {!run}. *)
val spawn : (unit -> unit) -> unit

(** Suspend the running fiber at a sync.  Only inside {!run}. *)
val sync : unit -> unit
