(** SP-order reachability for series-parallel DAGs (the WSP-Order black box).

    Maintains two order-maintenance lists over strands — the {e English}
    order (left-to-right depth-first: spawned child before continuation) and
    the {e Hebrew} order (right-to-left: continuation before child).  Two
    strands are in series ([u ~> v]) iff [u] precedes [v] in {e both} lists;
    they are logically parallel iff the lists disagree (Bender, Fineman,
    Gilbert & Leiserson, SPAA'04; parallelized as WSP-Order by Utterback
    et al., SPAA'16 — see DESIGN.md §5 for our concurrency simplification).

    Protocol, driven by the executor:
    - [spawn t u] when the strand [u] executes a [spawn]: returns the strand
      for the spawned child, the continuation strand, and — iff this is the
      first spawn of [u]'s enclosing sync block — the pre-inserted sync
      strand for that block (the "first-spawn trick" that keeps the sync
      node after the whole block in both orders);
    - the executor threads the sync strand through the function frame and
      switches to it when the sync is passed.

    The English order doubles as the sequential depth-first execution order,
    which is exactly the "left-of" relation the reader treaps need. *)

type t

(** A strand's reachability identity.  Allocation is [spawn]/[make_root]
    only; comparison is physical. *)
type strand

(** [create ()] makes a fresh structure along with the root strand that
    represents the computation's initial strand. *)
val create : unit -> t * strand

(** Unique, dense id of a strand (creation order; root is 0). *)
val id : strand -> int

(** [spawn t ~sync_pre u] registers that strand [u] spawns.  [sync_pre] is
    the sync strand already pre-inserted for [u]'s current sync block, if
    any: pass [None] at the first spawn of a block and a fresh sync strand
    is created and returned as [sync]; pass [Some s] afterwards and [s] is
    returned unchanged.

    Returns [(child, continuation, sync)]: the strand beginning the spawned
    function, the strand for the spawn's continuation, and the block's sync
    strand. *)
val spawn : t -> sync_pre:strand option -> strand -> strand * strand * strand

(** [series t u v] — true iff [u ~> v] (there is a path from [u] to [v], or
    [u == v]).  Thread-safe wrt concurrent [spawn]s. *)
val series : t -> strand -> strand -> bool

(** [parallel t u v] — true iff the strands are logically parallel. *)
val parallel : t -> strand -> strand -> bool

(** [left_of t u v] — [u] executes before [v] in the sequential depth-first
    execution (English order).  Total on distinct strands; for parallel
    strands this is the left-most/right-most criterion of §II. *)
val left_of : t -> strand -> strand -> bool

(** Number of strands created so far. *)
val strand_count : t -> int
