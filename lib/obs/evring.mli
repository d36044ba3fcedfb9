(** Per-track fixed-capacity event ring buffer.

    Overwrite-oldest semantics: emission never blocks and never allocates;
    when the ring wraps, the oldest events are dropped and accounted in
    {!dropped}.  A ring has exactly one writing owner (the pipeline stage
    or worker whose track it is); export reads happen after the run.

    The emit entry points are [@pint.hot]: their bodies are int stores
    only, and a disabled ring (every ring of a disabled {!Obs} session is
    {!null}) short-circuits on one bool load, so hot pipeline call sites
    pass pint_lint R1 with profiling compiled in. *)

type t

(** The shared disabled ring: every emit is a no-op. *)
val null : t

val create : clock:Clock.t -> capacity:int -> t

val enabled : t -> bool

(** Read the ring's clock (advances a counter clock). *)
val now : t -> int

(** Whether the ring's clock is virtual (see {!Clock.is_virtual}). *)
val is_virtual : t -> bool

(** Instant event stamped with the clock's current time. *)
val emit : t -> kind:int -> arg:int -> unit

(** Instant event at an explicit timestamp. *)
val emit_at : t -> ts:int -> kind:int -> arg:int -> unit

(** Span event; also advances a virtual clock past [ts + dur] so later
    implicitly-stamped events on this track stay monotone. *)
val emit_span : t -> ts:int -> dur:int -> kind:int -> arg:int -> unit

(** Total events emitted (including dropped). *)
val recorded : t -> int

(** Events still in the ring. *)
val retained : t -> int

(** Events lost to wraparound. *)
val dropped : t -> int

(** Iterate retained events, oldest first. *)
val iter : t -> (ts:int -> dur:int -> kind:int -> arg:int -> unit) -> unit
