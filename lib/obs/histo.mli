(** Log2-bucketed latency histogram (64 buckets).

    Bucket 0 holds values [<= 1] (negative samples are clamped to 0 —
    cross-timeline virtual latencies can legitimately go negative, see
    DESIGN.md §11); bucket [b >= 1] holds values in [[2^b, 2^(b+1))].
    Single-owner mutable state: each histogram belongs to exactly one
    pipeline stage; cross-stage aggregation goes through {!merge_into}
    after the run has drained. *)

type t

val create : unit -> t

(** Shared sink of disabled sessions: written, never read. *)
val dummy : t

val add : t -> int -> unit
val count : t -> int
val max_value : t -> int

(** Bucket index for a value (exposed for tests). *)
val bucket_of : int -> int

(** [quantile t q] — lower bound of the bucket holding the [q]-quantile
    ([0 < q <= 1]); 0 when empty. *)
val quantile : t -> float -> int

val merge_into : src:t -> dst:t -> unit
