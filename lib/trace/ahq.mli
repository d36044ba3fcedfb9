(** An access-history queue lane.

    A bounded ring written only by one producer (the collector / writer
    treap worker) and read by consumer treap workers, each through its own
    cursor — the paper's "only the writer treap worker modifies it, the
    reader treap workers only read it" design.  A slot is recycled (and its
    record reference dropped) once every reader has moved past it; if the
    ring is full the producer stalls, which is the natural backpressure
    when the treap workers fall behind.

    The paper runs one lane with exactly two readers (the left-most and
    right-most reader treap workers); the sharded access history
    ([Pint_detector.make ~shards], routed by {!Lanes}) runs one lane per
    address-range shard, each with its own reader set, so the ring is
    polymorphic in its payload and supports an arbitrary reader count.
    Readers are identified by index; {!l} and {!r} name the classic two.

    Safe with the producer and each reader on distinct domains: slot
    publication and recycling both ride atomic head/cursor edges (see the
    memory-ordering audit at the top of the implementation), with no lock
    on any path. *)

type 'a t

type reader = int

(** Conventional names for the two-reader configuration. *)
val l : reader

val r : reader

(** [create ?capacity ~readers ()] — [readers >= 1] cursors. *)
val create : ?capacity:int -> ?readers:int -> unit -> 'a t

(** Install observability tracks (before the pipeline starts): the writer
    ring receives an {!Ev.enqueue} occupancy sample per successful enqueue,
    reader ring [i] receives {!Ev.recycle} slot-recycling events and
    occupancy samples from reader [i]'s cursor advances.  Disabled rings
    ({!Evring.null}, the default) make all of it a no-op. *)
val set_obs : 'a t -> writer:Evring.t -> readers:Evring.t array -> unit

(** {2 Producer (writer treap worker)} *)

(** [has_room t] — true when the next {!try_enqueue} would succeed.
    Checked against a cached lower bound on the minimum reader cursor
    (cursors only advance, so the bound stays valid); the cursors are
    rescanned only when the cached bound would reject.  Producer-side only:
    the cache it refreshes is writer-private.  With a single producer the
    answer stays valid until that producer enqueues, which is what lets
    {!Lanes.reserve} commit all-or-nothing across lanes. *)
val has_room : 'a t -> bool

(** [try_enqueue t s] — false iff the ring is full (same bound as
    {!has_room}, making the common ring-not-near-full enqueue O(1) in the
    reader count). *)
val try_enqueue : 'a t -> 'a -> bool

(** {2 Consumers (reader treap workers)} *)

(** Next record for this reader, if the producer has published one. *)
val peek : 'a t -> reader -> 'a option

(** Advance this reader's cursor past the record returned by [peek]; also
    clears the slot once every reader has passed it.
    @raise Failure if nothing is pending for this reader. *)
val advance : 'a t -> reader -> unit

(** Default [max] for {!peek_batch}. *)
val default_batch : int

(** [peek_batch ?max t i] — up to [max] (default {!default_batch}) pending
    records for reader [i], oldest first; [[||]] when none are pending.
    Batched consumption lets a reader amortize its cursor update and
    slot-recycling scan over the whole batch: follow with
    [advance_n t i (Array.length batch)]. *)
val peek_batch : ?max:int -> 'a t -> reader -> 'a array

(** [peek_batch_into t i buf] — like {!peek_batch} with [max = Array.length
    buf], but fills the caller-provided buffer instead of allocating a fresh
    array, and returns the number of records written (0 when none pending).
    The reader owns [buf] and reuses it across steps; entries past the
    returned count are stale leftovers from earlier batches.
    @raise Invalid_argument if [buf] is empty. *)
val peek_batch_into : 'a t -> reader -> 'a array -> int

(** Advance reader [i]'s cursor by [n] records, recycling every slot all
    other readers have already passed, with a single scan of the other
    cursors for the whole batch.
    @raise Failure if fewer than [n] records are pending. *)
val advance_n : 'a t -> reader -> int -> unit

(** {2 Diagnostics} *)

val enqueued : 'a t -> int
val processed : 'a t -> reader -> int

(** Number of times the producer had to rescan the reader cursors because
    the cached minimum-cursor bound would have rejected an enqueue. *)
val min_rescans : 'a t -> int

(** High-water occupancy mark observed by the producer (against the cached
    cursor bound, so conservative the same way the emitted samples are). *)
val peak_occupancy : 'a t -> int

(** All readers fully caught up with the producer. *)
val drained : 'a t -> bool

val capacity : 'a t -> int
