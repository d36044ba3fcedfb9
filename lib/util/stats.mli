(** Streaming summary statistics (count / mean / min / max / stddev).

    Used by the harness to aggregate repeated experiment runs the way the
    paper does ("average of five runs, standard deviation < 5%"). *)

type t

val create : unit -> t

(** [add t x] folds one observation into the summary. *)
val add : t -> float -> unit

val count : t -> int

(** Arithmetic mean; 0. when empty. *)
val mean : t -> float

(** Population standard deviation; 0. when fewer than two observations. *)
val stddev : t -> float

val min : t -> float
val max : t -> float

(** [merge a b] is a summary over both observation streams. *)
val merge : t -> t -> t
