(** Shared access-history policies: what each treap/shadow cell keeps, and
    when a pair of accesses races.  Centralized so STINT, C-RACER and PINT
    cannot disagree on semantics. *)

(** [race sp ~prior ~current] — the stored accessor [prior] conflicts with
    [current] iff they are logically parallel. *)
val race : Sp_order.t -> prior:Sp_order.strand -> current:Sp_order.strand -> bool

(** [path_diags sum] — the treap path counters as diagnostics, each summed
    over a detector's treaps by [sum]: [fastpath_hits], [inplace_hits],
    [slowpath_hits], [fastpath_rate] (fast over all three) and
    [scratch_reuse]. *)
val path_diags : ((Sp_order.strand Itreap.t -> int) -> int) -> (string * float) list

(** Reader-slot update policies.  All take the incumbent reader and the new
    reader [s]; [`Replace] means [s] takes the slot.

    A reader that is serial-after the incumbent always replaces it (it
    supersedes every reader it can see); among parallel readers the
    left-most (resp. right-most) in English order wins. *)

val keep_leftmost :
  Sp_order.t -> s:Sp_order.strand -> incumbent:Sp_order.strand -> [ `Keep | `Replace ]

val keep_rightmost :
  Sp_order.t -> s:Sp_order.strand -> incumbent:Sp_order.strand -> [ `Keep | `Replace ]
