(** Strand records — the objects that flow from core workers through traces
    into the access-history queue.

    One record exists per executed strand.  The executor creates it at
    strand start, fills in the coalesced interval sets at strand end, and
    the fields in the middle implement Algorithm 1/2's bookkeeping:

    - [pred] counts not-yet-collected immediate predecessors; only
      meaningful for strands that can head a trace (stolen continuations and
      non-trivial sync nodes), but maintained uniformly as the paper does;
    - [child]/[child_is_sync]/[is_spawn] drive the decrement in Collect
      (Algorithm 2);
    - [clears] are stack-frame ranges each treap worker wipes when it
      processes this record (§III-F stack reuse);
    - [frees] are heap ranges whose actual deallocation is delayed until the
      writer treap worker collects this record (§III-F heap reuse);
    - [done_count] is the recycling fetch-and-add: a slot is reusable once
      all three treap workers have processed the record. *)

type t = {
  uid : int;  (** unique, creation order *)
  sp : Sp_order.strand;  (** reachability identity *)
  mutable reads : Interval.t array;  (** coalesced read intervals (set at finish) *)
  mutable writes : Interval.t array;  (** coalesced write intervals (set at finish) *)
  mutable raw_reads : int;
  mutable raw_writes : int;
  mutable work : int;  (** total words touched — the strand's work proxy *)
  mutable compute : int;  (** arithmetic operations reported by kernels (cost model) *)
  pred : int Atomic.t;
  mutable child : t option;
  mutable child_is_sync : bool;  (** [child] is a non-trivial sync node *)
  mutable is_spawn : bool;  (** this strand ends at a spawn *)
  mutable clears : (int * int) list;  (** (base, len) stack ranges to clear *)
  mutable frees : (int * int) list;  (** (base, len) heap ranges to free on collect *)
  done_count : int Atomic.t;
  mutable obs_ts : int;
      (** profiling: observability timestamp of the strand's finish, written
          by the finishing core worker strictly before [Trace.push]
          publishes the record (same discipline as the fields above); the
          pipeline stages read it to compute finish→collect/done latencies *)
}

(** [make ~uid sp] — a fresh record with empty intervals and zeroed
    bookkeeping. *)
val make : uid:int -> Sp_order.strand -> t
