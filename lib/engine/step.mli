(** The result of driving a pipeline stage one step.

    This is the {e single} definition of the step variant for the whole
    system: every pipeline stage — PINT's writer treap worker, its reader
    treap workers, any auxiliary loop handed to an executor — reports
    progress through this type, and every scheduler (the group round
    {!Pipeline.step}, which {!Pipeline.drive} and the {!Micropool} workers
    loop, and the virtual-time actors of [Sim_exec]) interprets it through
    the helpers below.  Step implementations should build results with the
    constructors rather than the raw variant so the representation stays
    private to this library. *)

type outcome = {
  records : int;  (** pipeline records consumed (e.g. strands, batched) *)
  visits : int;  (** cost proxy for the step (e.g. treap-node visits) *)
}

type t =
  [ `Worked of outcome  (** progressed *)
  | `Idle  (** nothing available upstream right now *)
  | `Stalled  (** blocked on a full downstream queue (backpressure) *)
  | `Done  (** this stage's work is complete for the whole run *) ]

(** [worked ?records visits] — a productive step; [records] defaults to 1. *)
val worked : ?records:int -> int -> t

val idle : t
val stalled : t
val finished : t

(** Did the step make progress ([`Worked])? *)
val progressed : t -> bool

val is_done : t -> bool

(** [`Idle] or [`Stalled] — no progress but not finished. *)
val blocked : t -> bool

(** Visit count of a [`Worked] step, 0 otherwise. *)
val visits : t -> int

(** Record count of a [`Worked] step, 0 otherwise. *)
val records : t -> int
