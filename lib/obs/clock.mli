(** Timestamp sources for the observability layer.

    Every {!Evring.t} carries one clock; which one decides what an event's
    [ts] means:

    - {!monotonic} — wall time in integer microseconds, for runs without
      virtual time ([Sim_exec.serial], [Par_exec]);
    - {!manual} — a virtual clock the single-threaded simulator pins to
      whichever simulated timeline (worker clock, stage clock) is about to
      emit, making seeded [Sim_exec] traces fully deterministic;
    - {!counter} — a self-advancing tick for offline replay, where no
      meaningful timeline exists but per-track monotonicity is still wanted;
    - {!null} — the no-op clock of a disabled observability session.

    Virtual clocks start at 0 and only ever move forward: {!set} pins a
    manual clock to a simulated time (and only advances a counter),
    {!catch_up} advances past the end of an explicitly-timed span so later
    implicit reads stay monotone per track. *)

type t

val null : t
val monotonic : t
val manual : unit -> t
val counter : unit -> t

(** Current timestamp. A counter clock advances by one per read. *)
val now : t -> int

(** Pin a manual clock to [v] (advance-only for counters, no-op otherwise). *)
val set : t -> int -> unit

(** Advance a virtual clock to at least [v]; no-op on real/null clocks. *)
val catch_up : t -> int -> unit

(** True for every clock whose time is not wall time — such traces price
    span durations from the cost model rather than from clock deltas. *)
val is_virtual : t -> bool
