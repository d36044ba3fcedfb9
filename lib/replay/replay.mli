(** Deterministic offline replay: drive any detector from a persisted trace.

    Replay reconstructs the run's strand DAG from PINTRACE entries and pushes
    it through the {!Hooks} contract exactly as the serial simulator
    ({!Sim_exec.serial}) would, without re-executing any workload code:
    [Sp_order] is rebuilt by re-issuing the spawn protocol ({!Book.spawn})
    in canonical depth-first order, fresh
    [Srec]s are filled from the recorded interval sets, and every boundary
    event fires with Algorithm-1 bookkeeping applied.

    There is one walk, {!Session}'s: a depth-first walk with an explicit
    stack of pending strands that advances whenever the next strand's entry
    has arrived.  A {!Session} is pushed a byte stream chunk by chunk (the
    [pint_serve] path); {!run} offers it a whole decoded file at once.  Both
    therefore replay every trace identically, down to the replay-side
    strand ids.

    Canonicalization: whatever schedule produced the capture, replay
    linearizes it to the sequential (serial-elision) order — continuations
    are never stolen, every sync is trivial, and strand/sp ids are assigned
    in depth-first creation order.  By the paper's Theorem 5 the detectors'
    deduplicated race sets are invariant under this re-scheduling, which is
    what makes traces diffable artifacts: a trace captured under [par] and
    replayed serially must report the same races as a live sequential run of
    the same program (modulo address-layout differences the schedule itself
    introduces — racy workload accesses live on the schedule-independent
    heap prefix).

    Replay is single-threaded and deterministic: replaying the same trace
    twice through the same detector yields identical race sets and
    identical diagnostics.  A {!Session}'s pipeline stages may instead run
    on real pool domains (the [pint_serve] path); the strand feed stays
    the deterministic serial elision, so race sets remain
    schedule-invariant (Theorem 5). *)

exception Corrupt of string

(** Replay summary for one detector. *)
type outcome = {
  detector : string;
  n_strands : int;  (** strands replayed (= trace entries) *)
  races : Report.race list;  (** deduplicated, ordered (see {!Report.races}) *)
  diagnostics : (string * float) list;
}

(** Per-strand observer for DAG extraction (see {!Predict}): called once per
    replayed strand, after its recorded effects have been pushed (so the
    record's interval sets are filled), with the replay's {!Sp_order.t}, the
    strand's {e observed-schedule position} — its index in the file's entry
    order, which, being the capture's finish order, is a linearization of the
    strand DAG — the trace entry, and the replay record carrying the strand's
    {!Sp_order.strand} and id. *)
type strand_observer = sp:Sp_order.t -> pos:int -> Tracefile.entry -> Srec.t -> unit

(** [run ?wrap ?on_strand trace det] — replay through a detector instance
    and drain its pipeline on the calling thread: a {!Session} offered
    every entry in file order, then closed.  The detector must be fresh
    (one instance per replay) and gets a fresh address space; recorded
    frees are {!Aspace.reserve}d before being forwarded, so the detectors'
    deferred-free handling runs as live.  [wrap] (default identity) is
    applied to the detector's driver before replay — e.g.
    {!Obs_hooks.instrument} to profile a replay.  [on_strand] observes
    every strand as it replays (e.g. {!Predict.Builder.observer} to build
    the strand DAG for predictive detection in the same pass as observed
    detection).
    @raise Corrupt if the trace's DAG links are inconsistent. *)
val run :
  ?wrap:(Hooks.driver -> Hooks.driver) ->
  ?on_strand:strand_observer ->
  Tracefile.t ->
  Detector.t ->
  outcome

(** {2 Streaming sessions} *)

(** Push-driven replay over an incremental PINTRACE byte stream.

    A session owns one fresh detector and one {!Tracefile.Decoder}: callers
    {!Session.feed} socket-sized chunks as they arrive, and the session
    replays every strand whose entry (and whose DFS predecessors) have
    decoded — the walk {!run} uses, suspended wherever the stream is still
    short.  Race sets are therefore bit-identical to the offline replay of
    the completed file at the Theorem-5 (kind, prior, current) granularity.

    The detector's pipeline stages may run on real domains concurrently
    with the feed: create the session first (the detector's run is set up
    eagerly), then hand its stages to a {!Micropool}, as [pint_serve]
    does. *)
module Session : sig
  type t

  (** [create ?wrap ?on_strand det] — a session at stream start.  [det]
      must be fresh; [wrap] (default identity) wraps its driver, e.g.
      {!Obs_hooks.instrument}.  The decoder keeps its default bound (see
      {!Tracefile.Decoder.create}).  [on_strand] observes each strand as it
      replays; its [pos] is the entry's arrival order in the stream — the
      same observed-schedule position offline replay reads off the file. *)
  val create :
    ?wrap:(Hooks.driver -> Hooks.driver) ->
    ?on_strand:strand_observer ->
    Detector.t ->
    t

  (** [feed t chunk] — decode, replay as far as possible, and return the
      races newly reported since the last call (Theorem-5 keys, so a pair
      is returned once even if re-witnessed).
      @raise Tracefile.Error on a malformed stream.
      @raise Corrupt on inconsistent DAG links or a repeated uid.
      @raise Invalid_argument after {!eof} or {!abort}. *)
  val feed : t -> ?pos:int -> ?len:int -> string -> Report.race list

  (** Declare end-of-stream: verifies the decoder consumed a complete,
      CRC-clean file, that every strand was replayed, and fires the
      detector's [on_done] (letting pipeline stages reach [`Done]).
      Returns the final batch of new races.
      @raise Tracefile.Error if the stream was truncated.
      @raise Corrupt if the DAG has no root or a dangling link, or strands
      were unreachable. *)
  val eof : t -> Report.race list

  (** Races newly reported since the last {!feed}/{!eof}/{!poll_races} —
      with the pipeline on real pool domains, detection continues between
      and after feeds, so poll to stream late discoveries (and after the
      final drain, to flush the tail). *)
  val poll_races : t -> Report.race list

  (** Terminate a failed session: fires [on_done] (once) regardless of
      stream state, so shared pool domains driving this detector's stages
      are never wedged on a dead tenant.  Idempotent. *)
  val abort : t -> unit

  (** True after {!eof} or {!abort}. *)
  val finished : t -> bool

  (** Strands replayed so far — compare against the detector's
      ["collected"] diagnostic to estimate pipeline backlog. *)
  val fed_strands : t -> int

  (** Final summary; call after {!eof} (and, with real pools, after the
      pool has joined and the detector drained). *)
  val outcome : t -> outcome
end

(** {2 Differential detection} *)

(** Races present in exactly one of two outcomes, compared at the Theorem-5
    granularity (kind, earlier strand, later strand) — witness intervals are
    ignored, since detectors legitimately report different witnesses for the
    same racing pair. *)
type divergence = { left_only : Report.race list; right_only : Report.race list }

val no_divergence : divergence -> bool

(** [diff_races a b] — symmetric difference at (kind, prior, current). *)
val diff_races : Report.race list -> Report.race list -> divergence

(** [differential trace detA detB] — replay the same trace through two fresh
    detectors (each on its own fresh address space) and diff their race
    sets. *)
val differential : Tracefile.t -> Detector.t -> Detector.t -> divergence

val pp_divergence : Format.formatter -> divergence -> unit
