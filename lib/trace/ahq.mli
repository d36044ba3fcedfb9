(** The access-history queue.

    A bounded ring written only by one producer (the collector, which is
    also the writer treap worker of shard 0) and read by the consuming
    treap workers, each through its own cursor — the paper's "only the
    writer treap worker modifies it, the reader treap workers only read
    it" design.  A slot is recycled (and its record reference dropped)
    once every reader has moved past it; if the ring is full the producer
    stalls, which is the natural backpressure when the treap workers fall
    behind.

    The paper's queue has two readers, the left-most and right-most
    reader treap workers.  The sharded access history
    ([Pint_detector.make ~shards]) keeps the one queue and gives each of
    its [3·shards − 1] consuming stages a cursor; every stage restricts
    the records to its own shard's addresses ({!Shard}).  Readers are
    identified by index.

    Safe with the producer and each reader on distinct domains: slot
    publication and recycling both ride atomic head/cursor edges (see the
    memory-ordering audit at the top of the implementation), with no lock
    on any path. *)

type t

type reader = int

(** [create ~capacity ~readers] — a ring of [capacity] records with
    [readers >= 1] cursors.  {!Srec.placeholder} fills every slot that
    holds no record (a recycled slot is reset to it), so an enqueue
    stores the record itself. *)
val create : capacity:int -> readers:int -> t

(** Install observability tracks (before the pipeline starts): the writer
    ring receives an {!Ev.enqueue} occupancy sample per successful enqueue,
    reader ring [i] receives {!Ev.recycle} slot-recycling events and
    occupancy samples from reader [i]'s cursor advances.  Disabled rings
    ({!Evring.null}, the default) make all of it a no-op. *)
val set_obs : t -> writer:Evring.t -> readers:Evring.t array -> unit

(** {2 Producer (the collector)} *)

(** [try_enqueue t ~rounds x] — enqueue [x]; false iff the ring stays
    full.  A full ring is re-probed after each of up to [rounds]
    {!Backoff} rounds before the enqueue is rejected.  [rounds = 0]
    rejects at once, the only sound setting under a single-threaded
    driver: readers run only when the producer yields, so waiting in-line
    can never create room.  Room is checked against a cached lower bound
    on the minimum reader cursor (cursors only advance, so the bound stays
    valid); the cursors are rescanned only when the cached bound would
    reject, which keeps the common not-near-full enqueue O(1) in the
    reader count.  Producer side only. *)
val try_enqueue : t -> rounds:int -> Srec.t -> bool

(** {2 Consumers (the treap workers)} *)

(** The batch size of the pipeline's stages: the collector's strands per
    step, and the length of each consumer's {!peek_batch_into} buffer. *)
val default_batch : int

(** [peek_batch_into t i buf] — the oldest pending records for reader
    [i], at most [Array.length buf] of them, written into [buf]; returns
    how many (0 when none is pending).  The reader owns [buf] and reuses
    it across steps; entries past the returned count are stale leftovers
    from earlier batches.  Follow with [advance_n t i n].
    @raise Invalid_argument if [buf] is empty. *)
val peek_batch_into : t -> reader -> Srec.t array -> int

(** Advance reader [i]'s cursor by [n] records, recycling every slot all
    other readers have already passed, with a single scan of the other
    cursors for the whole batch.
    @raise Failure if fewer than [n] records are pending. *)
val advance_n : t -> reader -> int -> unit

(** {2 Diagnostics} *)

val enqueued : t -> int
val processed : t -> reader -> int

(** Number of times the producer had to rescan the reader cursors because
    the cached minimum-cursor bound would have rejected an enqueue. *)
val min_rescans : t -> int

(** High-water occupancy mark observed by the producer (against the cached
    cursor bound, so conservative the same way the emitted samples are). *)
val peak_occupancy : t -> int

(** Enqueues rejected because the ring stayed full. *)
val rejects : t -> int

(** {!Backoff} rounds the producer waited inside {!try_enqueue} for a full
    ring to drain. *)
val backpressure_waits : t -> int

(** All readers fully caught up with the producer. *)
val drained : t -> bool
