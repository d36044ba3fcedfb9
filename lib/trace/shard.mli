(** Address-range shard router.

    Shard ownership is by {!shard_block}-word block — block [b] belongs to
    shard [b mod shards] — so any interval decomposes into block-aligned
    subranges, each owned by exactly one shard.  Every shard's treap
    stages read the whole strand stream off the one access-history queue
    and restrict each strand's reads, writes, clears and frees to their
    own subranges with {!iter_subranges}.  [shards = 1] is the paper's
    configuration: nothing is ever split. *)

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
