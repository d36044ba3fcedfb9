(** Lock-free Chase-Lev work-stealing deque.

    Single-owner bottom end ([push_bottom]/[pop_bottom] — one domain only),
    concurrent [steal_top] thieves arbitrated by one CAS on the top index.
    No mutex on any path; see the implementation header for the
    memory-ordering argument (OCaml SC atomics subsume the C11 fences of
    Lê et al.'s formulation) and DESIGN.md §13.

    The ring is bounded in steady state: it starts at [capacity] slots
    (rounded up to a power of two) and doubles, owner-side, only when a
    push finds it full. *)

type 'a t

(** [create ?capacity ~dummy ()] — [dummy] fills empty slots so the ring
    retains no stale payload references. *)
val create : ?capacity:int -> dummy:'a -> unit -> 'a t

(** Owner only. *)
val push_bottom : 'a t -> 'a -> unit

(** Owner only.  [None] when empty, or when a thief won the race for the
    last element. *)
val pop_bottom : 'a t -> 'a option

(** Any domain.  [None] when empty or when the top CAS was lost (counted
    in {!steal_cas_failures}); callers retry or back off. *)
val steal_top : 'a t -> 'a option

(** Exact when quiescent, racy hint otherwise. *)
val is_empty : 'a t -> bool

(** Lost [steal_top] CASes, summed across all thieves. *)
val steal_cas_failures : 'a t -> int
