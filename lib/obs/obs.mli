(** An observability session: clock + track registry + latency histograms.

    A session is either live ({!create}) or {!disabled}.  Disabled is the
    default everywhere: every {!track} request returns {!Evring.null} and
    every {!histo} request returns {!Histo.dummy}, so instrumented call
    sites stay allocation-free no-ops (pint_lint R1 clean) without any
    branching at wiring time.

    Tracks and histograms are registered during pipeline wiring — strictly
    before stages start — and each is owned by exactly one stage or worker
    thereafter (OWNERSHIP.md); exporting happens after the run drains.
    {!track} is get-or-create by name, so independently wired emitters
    naming the same stage share its track. *)

type t

(** [create ~clock ()] — a live session; each track's ring keeps the
    last 16384 events. *)
val create : clock:Clock.t -> unit -> t

(** The inert session: no tracks, no cost. *)
val disabled : t

val enabled : t -> bool
val clock : t -> Clock.t

(** Get-or-create the ring for a named track. *)
val track : t -> string -> Evring.t

(** Get-or-create a named latency histogram. *)
val histo : t -> string -> Histo.t

val tracks : t -> (string * Evring.t) list

(** Total events emitted / dropped across all tracks. *)
val events : t -> int

val dropped : t -> int

(** Aggregate metrics — track/event/drop totals, AHQ occupancy stats over
    the retained window, and n/p50/p90/p99/max per histogram — as
    [("obs.…", value)] pairs, mergeable into bench [--json] output. *)
val summary : t -> (string * float) list

(** Chrome trace-event JSON of all tracks (see {!Chrome.export});
    [meta] lands in [otherData] alongside per-track drop counts. *)
val chrome_json : ?meta:(string * string) list -> t -> string

val write_chrome : ?meta:(string * string) list -> t -> path:string -> unit
