(** Runtime coalescing of a strand's memory accesses into intervals.

    One coalescer instance is owned by the executing worker and recycled
    across strands.  During a strand it receives every instrumented access
    ([add_read] / [add_write], with a length so bulk operations — the stand-in
    for compile-time coalescing — contribute one call); at the strand
    boundary [finish] returns the strand's disjoint, sorted read and write
    interval sets.

    Coalescing happens in two stages, mirroring STINT's runtime scheme:
    - a fast path merges an access that overlaps or extends the most recently
      recorded interval of the same kind (the overwhelmingly common case in
      loop nests);
    - [finish] sort-merges whatever remains into canonical disjoint sets —
      unless the stream was monotone, in which case the buffer is already
      canonical and the sort + re-merge pass is skipped entirely (tracked by
      a per-side flag that drops on the first access starting before the
      last recorded interval). *)

type t

val create : unit -> t

val add_read : t -> addr:int -> len:int -> unit
val add_write : t -> addr:int -> len:int -> unit

(** [finish t] returns [(reads, writes)] as canonical interval sets and
    resets the coalescer for the next strand.  Each returned array is sorted
    by [lo] with pairwise-disjoint, non-adjacent members. *)
val finish : t -> Interval.t array * Interval.t array

(** [(skipped, sorted)] — cumulative count of [finish]-time canonicalization
    passes that skipped the sort because the access stream was monotone,
    vs. those that had to sort + re-merge.  Not reset by [finish]. *)
val sort_stats : t -> int * int

(** Pending (uncoalesced-buffer) sizes — test/diagnostic aid. *)
val pending : t -> int * int
