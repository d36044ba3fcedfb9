(** Race reports.

    A determinacy race is reported between two strands with the conflicting
    address interval.  Reports are deduplicated on (earlier strand, later
    strand, kind) — the granularity at which the paper's Theorem 5 equates
    detectors.  The collector is thread-safe: PINT's treap workers run on
    separate domains. *)

type kind =
  | Write_write
  | Write_read  (** earlier write, later read *)
  | Read_write  (** earlier read, later write *)

(** How a race was established.  [Observed] races are Theorem-5 facts of
    the schedule that ran: the detectors witnessed the conflicting pair in
    the access history.  [Predicted] races were {e serialized} by the
    observed schedule but are reachable in a sync-preserving, window-bounded
    reordering of it (see {!Predict}); they are reported disjointly and
    never enter a detector's deduplication table. *)
type origin = Observed | Predicted

type race = {
  kind : kind;
  prior : int;  (** {!Sp_order.id} of the strand already in the access history *)
  current : int;  (** id of the strand whose access detected the race *)
  where : Interval.t;  (** a conflicting interval witness *)
}

type t

val create : unit -> t

(** [add t kind ~prior ~current where] records a race (deduplicated). *)
val add : t -> kind -> prior:int -> current:int -> Interval.t -> unit

(** Distinct races recorded. *)
val count : t -> int

(** Calls to {!add} so far, whether or not their key was new (diagnostic;
    PINT's and STINT's [report_adds]).  It is not the number of conflicting
    overlaps: a treap role sends each racing pair once per strand however
    many stored intervals of the prior strand it meets. *)
val raw_count : t -> int

(** All distinct races, ordered by (prior, current, kind). *)
val races : t -> race list

(** [mem t ~prior ~current] — some race between this (ordered) strand pair. *)
val mem : t -> prior:int -> current:int -> bool

(** [Write_write], [Write_read], [Read_write] as 0, 1, 2: the order
    {!races} sorts kinds in, as an int for keys. *)
val kind_index : kind -> int

val kind_to_string : kind -> string
val origin_to_string : origin -> string
val pp_race : Format.formatter -> race -> unit
