(** Algorithm 1's record bookkeeping, shared by every strand walk.

    These are the [u.child] / [pred] manipulations a core worker performs at
    strand boundaries so that the writer treap worker can later check strand
    readiness (Algorithm 2).  Kept in one place so the simulated and
    real-parallel executors and the replay walk cannot drift apart. *)

(** [spawn sp ~fresh ~u ~sync] is the spawn step of strand [u] in a sync
    block whose sync record is [sync] ([None] at the block's first spawn).
    It extends the SP order, makes the continuation's record and, at a
    first spawn, the block's sync record — in that order, through [fresh] —
    and links [u] to the continuation.  Returns the spawned child's SP
    strand, the continuation record and the block's sync record.  The
    caller fires the spawn's finish event, then makes the child's record,
    so records keep their creation order. *)
val spawn :
  Sp_order.t ->
  fresh:(Sp_order.strand -> Srec.t) ->
  u:Srec.t ->
  sync:Srec.t option ->
  Sp_order.strand * Srec.t * Srec.t

(** At a spawned function's return whose spawn's continuation was stolen:
    register the return node as a counted predecessor of the block's sync. *)
val at_return_cont_stolen : u:Srec.t -> parent_sync:Srec.t -> unit

(** At a non-trivial sync: the strand leading into the sync is a counted
    predecessor of the sync node. *)
val at_sync_nontrivial : u:Srec.t -> sync:Srec.t -> unit
