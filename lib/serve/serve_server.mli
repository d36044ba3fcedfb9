(** The pint_serve daemon: N concurrent PINTRACE sessions over Unix or TCP
    sockets, one replay-driven detector per session, all pipeline stages on
    one shared micropool.

    Single-threaded IO: accepts, reads, frame reassembly, trace decoding
    and strand replay all run on the serving thread ([serve]), which is
    what makes every session's decoder and walk state single-owner
    (OWNERSHIP.md).  The only cross-domain traffic is the one each detector
    already has — its AHQ lanes to the shared pool workers — plus the
    per-slot completion atomics of {!Micropool.submit}.

    Per-tenant isolation and graceful degradation:
    - admission control — at most [max_sessions] live sessions; an
      over-capacity connection is answered with a framed ['X'] reject and
      closed, never queued or stalled;
    - backpressure — a session whose pipeline backlog (strands fed minus
      strands collected) exceeds [backlog_high] stops being read until the
      shared pool catches up, so flow control propagates to that client's
      socket without affecting other tenants; pair with [bp_rounds] (see
      {!Pint_detector.recommended_bp_rounds}) to also smooth transient
      full-lane rejects inside the collector;
    - per-session observability — each session carries its own {!Obs}
      session (monotonic clock): detector stage tracks, a ["serve.feed_us"]
      latency histogram per Data frame, with the summary merged into the
      final ['S'] frame.

    See DESIGN.md §14 for the session state machine. *)

type config = {
  detector : string;  (** detector name per {!Systems.make_detector} *)
  max_sessions : int;  (** admission cap *)
  pool_workers : int;  (** shared micropool domains *)
  shards : int;  (** default shard count (client may request its own) *)
  bp_rounds : int;  (** collector backpressure window, 0 = reject path *)
  backlog_high : int;  (** feed-minus-collected watermark that pauses reads *)
  max_frame : int;  (** wire-frame payload cap *)
  max_pending : int;  (** per-session decoder buffer cap *)
  obs_capacity : int option;  (** per-track ring size, [None] = default *)
  max_window : int;
      (** largest prediction window a Hello may request; requests above it
          are rejected, 0 disables predict sessions entirely (cost control:
          prediction work grows with the window) *)
}

val default_config : config

type t

(** [create ?config addr] binds and listens on [addr] (Unix or TCP) and
    spawns the shared pool.  @raise Unix.Unix_error on bind failure. *)
val create : ?config:config -> Unix.sockaddr -> t

(** The bound address (resolves port 0 to the actual port). *)
val sockaddr : t -> Unix.sockaddr

(** Run the IO loop until {!stop}, then shut down gracefully: abort live
    sessions (their leases complete, so pool workers never wedge), flush
    pending frames, join the pool, remove a Unix socket path.  [poll]
    (default 20 ms) is the select timeout that paces lease polling. *)
val serve : ?poll:float -> t -> unit

(** Signal-handler-safe: flips an atomic the {!serve} loop observes. *)
val stop : t -> unit

(** One IO iteration (accept/read/write/drain); exposed for in-process
    harnesses that multiplex the server with other work on one thread. *)
val once : t -> timeout:float -> unit

(** Manual shutdown for harnesses driving {!once} directly. *)
val shutdown : t -> unit

(** Daemon-level counters:
    [serve.accepted/rejected/completed/failed/pool_parks]. *)
val stats : t -> (string * float) list
