(** The racing pairs one treap role has already sent to the {!Report}
    during the strand it is applying.

    A strand's query can meet many stored intervals of one prior strand;
    the report keeps only the first witness of each (prior, current, kind)
    key, so every later send of the same pair within the strand is waste.
    The role consults this table after {!Policies.race} has found the pair
    parallel, and sends the pair only when {!first} says so.  It is exact:
    the series/parallel relation of two strands never changes, and the
    role's first overlap with a prior is still the one it sends.

    The table is direct-mapped over [slots] entries and allocation-free:
    {!next_strand} invalidates every entry by bumping a stamp, and a
    colliding key evicts the entry it lands on, so a collision can only
    re-send a pair, which the report drops. *)

type t

(** Entries in the table.  Priors whose ids are congruent modulo [slots]
    share an entry for each race kind. *)
val slots : int

val create : unit -> t

(** Start a new strand: every pair is unsent again. *)
val next_strand : t -> unit

(** [first t ~prior kind] — true iff the pair of [prior] (an
    {!Sp_order.id}) and the current strand has not been sent as [kind]
    since the last {!next_strand}, or its entry was evicted since; marks it
    sent. *)
val first : t -> prior:int -> Report.kind -> bool
