(** Event kind codes for {!Evring} entries.

    Plain ints so that hot emit call sites stay allocation-free; the set
    mirrors the pipeline's observable transitions (DESIGN.md §11). *)

val strand_finish : int
val enqueue : int
val collect : int
val treap_op : int
val stall : int
val recycle : int
val complete : int

(** Work-stealing executor: a worker stole a ditem from a peer's deque;
    the payload is the victim worker's index. *)
val steal : int

(** A pool or worker domain entered the deep-backoff park regime (one
    instant per episode, not per sleep); the payload is the domain's
    pool/worker index. *)
val park : int

(** Chrome-trace display name for a kind code. *)
val name : int -> string

(** Kinds rendered as Chrome "X" (complete-span) events. *)
val is_span : int -> bool

(** Kinds rendered as Chrome "C" (counter) events. *)
val is_counter : int -> bool

(** JSON key the kind's [arg] payload is exported under. *)
val arg_label : int -> string
