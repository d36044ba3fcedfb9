(** Address-range shard router: one {!Ahq} lane per shard.

    Shard ownership is by {!shard_block}-word block — block [b] belongs to
    shard [b mod shards] — so any interval decomposes into block-aligned
    subranges, each owned by exactly one shard.  The collector splits every
    strand's interval batch along those boundaries at collect time and
    commits the pieces to all lanes atomically (all-or-nothing), which
    keeps each lane a faithful DAG-ordered stream of the whole execution
    restricted to its address range.  [shards = 1] is the paper's
    configuration: a single lane, nothing ever split. *)

(** Block granularity of shard ownership, in words.  Allocations are
    block-aligned in practice, so intervals rarely straddle an ownership
    boundary and splits stay rare. *)
val shard_block : int

(** [owner ?block ~shards addr] — the shard owning [addr]
    ([addr / block mod shards]). *)
val owner : ?block:int -> shards:int -> int -> int

(** [iter_subranges ?block ~shards ~shard iv f] — the block-aligned
    subranges of [iv] owned by [shard], in address order; across all
    shards the subranges partition [iv] exactly.  [block] (default
    {!shard_block}) is exposed for property tests over other alignments. *)
val iter_subranges :
  ?block:int -> shards:int -> shard:int -> Interval.t -> (Interval.t -> unit) -> unit

type 'a t

(** [create ?capacity ~shards ~readers_of_lane ()] — [shards] lanes, lane
    [k] with [readers_of_lane k] reader cursors. *)
val create : ?capacity:int -> shards:int -> readers_of_lane:(int -> int) -> unit -> 'a t

(** The underlying ring of lane [k] (consumers peek/advance it directly). *)
val lane : 'a t -> int -> 'a Ahq.t

(** [enqueue_each t f] — commit one record to every lane, all-or-nothing:
    probes every lane for room first and only then evaluates [f k] and
    enqueues its result on lane [k].  False (and nothing enqueued, with the
    roomless lanes' reject counters bumped) if any lane stays full for the
    whole backpressure window.  Producer side only: soundness of
    probe-then-enqueue rests on the single-producer discipline of the
    lanes; concurrent consumers only ever create room, never take it. *)
val enqueue_each : 'a t -> (int -> 'a) -> bool

(** [set_backpressure t ~rounds] — let {!enqueue_each} ride out a full lane
    for up to [rounds] {!Backoff} rounds (re-probing after each) before
    rejecting the commit.  The default 0 rejects immediately, which is the
    only sound setting under a single-threaded driver: consumers only run
    when the producer yields, so waiting in-line can never create room.
    Enable only when lane consumers run on their own domains. *)
val set_backpressure : 'a t -> rounds:int -> unit

(** Producer backoff rounds taken inside {!enqueue_each} waiting for a
    saturated lane to drain. *)
val backpressure_waits : 'a t -> int

(** {2 Diagnostics} *)

(** How often lane [k] was out of room during an all-or-nothing commit. *)
val rejects : 'a t -> int -> int

val total_rejects : 'a t -> int

(** Every lane fully consumed by all its readers. *)
val drained : 'a t -> bool

val total_enqueued : 'a t -> int
val total_min_rescans : 'a t -> int
val max_peak_occupancy : 'a t -> int
