(** A stage group and the one loop that steps it.

    One group holds the stages of an asynchronous component that one
    thread drives (for PINT: a whole detector's writer and [2·S] reader
    treap workers, or one shard's {writer, lreader, rreader} triple).  A
    round ({!step}) steps every stage not yet [`Done] once and retires
    each one that reports [`Done].  {!drive} loops rounds on the calling
    thread until the group finishes — the single-threaded drain used by
    [Detector.drain] — and each
    {!Micropool} worker runs the same rounds over the groups it holds, as
    does each [Par_exec] holder over its one group.
    Rounds in which no stage progresses back off exponentially
    ({!Backoff.relax}) instead of spinning on bare [Domain.cpu_relax]. *)

type t

(** A group over [stages], none finished yet; rounds step them in list
    order. *)
val of_stages : Stage.t list -> t

(** One round.  True iff some stage worked or reported [`Done]; a round
    that steps only idle or stalled stages returns false.  Allocation-free
    beyond what the stage steps themselves allocate. *)
val step : t -> bool

(** Every stage has reported [`Done]. *)
val finished : t -> bool

(** Step rounds on the calling thread until {!finished}.  A finished group
    steps no stage; a fresh group over stages already [`Done] (e.g. after
    pool workers finished them) retires each on its first step. *)
val drive : t -> unit

(** Concatenated {!Stage.diagnostics} of every stage in the group. *)
val diagnostics : t -> (string * float) list
