(** STINT-style interval treap: a treap of pairwise {e non-overlapping}
    memory intervals, each owned by one strand (Xu et al., ALENEX'22).

    The tree is a BST on interval low endpoints and a max-heap on random
    priorities.  Because stored intervals never overlap, low endpoints and
    high endpoints induce the same order, which the query and insertion
    algorithms exploit: the set of stored intervals overlapping a probe
    interval is always contiguous in key order.

    Queries, inserts and clears take their operand as two ints [lo hi]
    (the closed range [\[lo, hi\]]), so a caller holding a subrange
    builds no interval.

    Insertions maintain the paper's exactness guarantee: inserting [3,7] by
    [w] into a treap holding [1,4,u],[6,10,v] yields [1,2,u],[3,7,w],
    [8,10,v].  Two insertion semantics cover the three access-history roles:

    - {!insert_replace} — last-writer semantics: the new owner takes the
      whole range; partially overlapped intervals are truncated.
    - {!insert_merge} — reader semantics: per overlapped segment a caller
      policy decides whether the incumbent survives ([`Keep]) or the new
      strand takes over ([`Replace]); uncovered gaps always go to the new
      strand.  The left-most and right-most reader treaps differ only in the
      policy closure they pass.

    [clear_range] supports §III-F: wiping a returning function's stack frame
    and delayed heap frees.

    Each treap instance is owned by exactly one worker (this is the whole
    point of PINT's design) so nothing here is thread-safe.  Single
    ownership is also what lets the treap update itself in place: nodes
    live in an arena owned by the treap — one flat [int array] holding
    five ints per slot (left, right, lo, hi, priority; [-1] is the empty
    tree) and a parallel owner array — and removed nodes go onto a free
    list threaded through their left links, so the arena grows only when
    the live set outgrows it ({!capacity}).  Links are int indices rather
    than mutable pointer fields because storing an int needs no OCaml 5
    write barrier; the descents relink on the way back up and allocate
    nothing.  Every insert starts with one probe descent for a stored
    interval that intersects the operand, or touches it with the same
    owner.  If there is none, the operand goes in with that descent's
    split and one three-way join.  If the first one is exactly the operand
    and no in-order neighbour touches it with the new owner, its slot
    takes the new owner in place.  Anything else takes the general path,
    which costs three walks in the common case: the probe finishes its
    descent as a split of everything that ends before the operand from
    the rest, one split at the operand's end isolates the overlap, and
    one three-way join puts the replacement in.  The splits record the
    boundary neighbours a merge needs, and the overlap entries and
    replacement pieces are staged in two scratch buffers owned by the
    treap and reused across operations (see DESIGN.md §8).

    Node visits are counted in an internal ledger so the benchmark harness
    can charge virtual cycles proportional to real structural work.  A
    visit is one node a descent examines; the count depends only on the
    tree's shape, which the keys and the seeded priority draws fix, not on
    how nodes are stored — so the cost model's per-visit charge
    ([c_treap_visit]) models one node touch whatever the representation
    (DESIGN.md §8).  Which path each mutating operation took is counted
    too ({!fastpath_hits}, {!inplace_hits}, {!slowpath_hits}), so
    detectors can report how often their interval stream let them skip
    the overlap machinery. *)

type 'o t

(** [create ~seed ~owner_eq ()] — [owner_eq] lets insertions merge adjacent
    equal-owner intervals, keeping the treap canonical and small. *)
val create : seed:int -> owner_eq:('o -> 'o -> bool) -> unit -> 'o t

(** Number of stored intervals. *)
val size : 'o t -> int

(** Total node visits performed so far (query + restructuring). *)
val visits : 'o t -> int

(** Total addresses covered by stored intervals. *)
val covered : 'o t -> int

(** Mutating operations ({!insert_replace}, {!insert_merge}, {!clear_range})
    that found no stored interval intersecting the operand and finished in
    the probe descent: for inserts, also no touching neighbour with the new
    owner, and the interval went in with one three-way join; for
    {!clear_range}, nothing to do. *)
val fastpath_hits : 'o t -> int

(** Inserts whose probe found exactly the operand stored, with no in-order
    neighbour touching it with the segment's new owner, and so set that
    slot's owner in place (or left it, under [`Keep] or an equal owner). *)
val inplace_hits : 'o t -> int

(** Mutating operations that took neither of those paths and ran the
    general extract/commit machinery. *)
val slowpath_hits : 'o t -> int

(** Slow-path operations that ran entirely inside previously grown scratch
    buffers (no fresh allocation for overlap/piece staging). *)
val scratch_reuse : 'o t -> int

(** [query t qlo qhi ~f] calls [f lo hi owner] for every stored interval
    [\[lo, hi\]] overlapping [\[qlo, qhi\]], in increasing address order.
    [f] must not modify [t]. *)
val query : 'o t -> int -> int -> f:(int -> int -> 'o -> unit) -> unit

(** [find t addr] — owner of the interval covering [addr], if any. *)
val find : 'o t -> int -> (Interval.t * 'o) option

(** [insert_replace t lo hi owner] — last-writer semantics (see above)
    over [\[lo, hi\]]. *)
val insert_replace : 'o t -> int -> int -> 'o -> unit

(** [insert_merge t lo hi owner ~keep] — reader semantics.  For every
    stored segment [seg] with incumbent [u] overlapping [\[lo, hi\]], the
    policy [keep ~incumbent:u] decides the segment's new owner; gaps
    inside [\[lo, hi\]] get [owner].  The policy must be a pure function
    of the two owners. *)
val insert_merge :
  'o t -> int -> int -> 'o -> keep:(incumbent:'o -> [ `Keep | `Replace ]) -> unit

(** [clear_range t lo hi] removes all coverage of [\[lo, hi\]],
    truncating stored intervals that straddle its boundary. *)
val clear_range : 'o t -> int -> int -> unit

(** All stored intervals in address order. *)
val to_list : 'o t -> (Interval.t * 'o) list

(** Number of node slots in the arena, live or free.  It only grows, and
    only when an insertion finds the free list empty. *)
val capacity : 'o t -> int

(** Remove everything; every slot returns to the free list. *)
val reset : 'o t -> unit

(** Check every structural invariant (BST order, heap order, disjointness,
    canonical same-owner separation, size accounting, and that each arena
    slot is reachable from the root or on the free list exactly once);
    raises [Failure] on violation.  Test-only. *)
val validate : 'o t -> unit
