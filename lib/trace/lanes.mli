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

(** [iter_subranges ?block ~shards ~shard lo hi ctx f] calls [f ctx lo'
    hi'] for each block-aligned subrange [\[lo', hi'\]] of [\[lo, hi\]]
    owned by [shard], in address order; across all shards the subranges
    partition [\[lo, hi\]] exactly.  At [shards = 1] that is one call with
    [lo hi] itself.  [f] takes its state as [ctx], so a toplevel [f]
    makes the walk allocate nothing.  [block] (default {!shard_block}) is
    exposed for property tests over other alignments. *)
val iter_subranges :
  ?block:int -> shards:int -> shard:int -> int -> int -> 'c -> ('c -> int -> int -> unit) -> unit

type 'a t

(** [create ?capacity ~shards ~readers_of_lane ()] — [shards] lanes, lane
    [k] with [readers_of_lane k] reader cursors. *)
val create : ?capacity:int -> shards:int -> readers_of_lane:(int -> int) -> unit -> 'a t

(** The underlying ring of lane [k] (consumers peek/advance it directly). *)
val lane : 'a t -> int -> 'a Ahq.t

(** [reserve t] — the first half of an all-or-nothing commit of one
    record to every lane: true iff every lane has room for one more
    record, after riding out a full lane for the backpressure window.
    False (with the roomless lanes' reject counters bumped) if any lane
    stays full.  After [true] the caller {!push}es exactly one record to
    each lane.  Producer side only: soundness of probe-then-enqueue rests
    on the single-producer discipline of the lanes; concurrent consumers
    only ever create room, never take it. *)
val reserve : 'a t -> bool

(** [push t k x] — enqueue [x] on lane [k] after a successful {!reserve}.
    @raise Failure if the lane has no room (a missing [reserve]). *)
val push : 'a t -> int -> 'a -> unit

(** [set_backpressure t ~rounds] — let {!reserve} ride out a full lane
    for up to [rounds] {!Backoff} rounds (re-probing after each) before
    rejecting the commit.  The default 0 rejects immediately, which is the
    only sound setting under a single-threaded driver: consumers only run
    when the producer yields, so waiting in-line can never create room.
    Enable only when lane consumers run on their own domains. *)
val set_backpressure : 'a t -> rounds:int -> unit

(** Producer backoff rounds taken inside {!reserve} waiting for a
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
