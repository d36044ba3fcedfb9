(** PINT — the paper's parallel interval-based race detector, with an
    N-shard access-history topology.

    Core-side (driven through the detector hooks by whichever executor is
    running the computation):
    - per-worker coalescers turn each strand's accesses into intervals;
    - finished strands are pushed onto the worker's current {!Trace}
      (Algorithm 1 — the [pred]/[child] bookkeeping itself is applied by the
      executors via {!Book});
    - a worker switches to a fresh trace when it starts a stolen
      continuation or passes a non-trivial sync.

    Access-history side: [shards] address-range shards ({!Shard}: block
    [b] belongs to shard [b mod shards]), each owning its own {writer,
    lreader, rreader} treap triple, and one access-history queue ({!Ahq})
    carrying every strand once, with a cursor per consuming stage.  All
    workers are packaged as engine {!Stage}s so every execution mode can
    drive them through the shared pipeline machinery —
    - the {b collector} (stage ["writer"] / ["writer0"]) collects ready
      strands from traces in a DAG-conforming order (Algorithm 2),
      enqueues each one (stalling on backpressure), performs the delayed
      heap frees, and doubles as shard 0's writer treap worker — at one
      shard this {e is} the paper's writer worker, byte for byte;
    - shard k's {b writer} treap worker (k ≥ 1) follows the queue, checking
      the strand's read/write subranges in shard k against the shard's
      last-writer treap;
    - shard k's {b left-most} / {b right-most} reader treap workers follow
      the queue in batches ({!Ahq.peek_batch_into}), check the write
      subranges in shard k against their reader treap and insert the read
      subranges under their respective keep policies.
    Every stage restricts a strand's reads, writes, clears and frees to
    its shard's blocks itself ({!Shard.iter_subranges}).

    Race-set invariant: every address belongs to exactly one shard per
    role, and every stage sees the full DAG-ordered strand stream — so for
    any shard count the reported race set equals the [shards = 1] paper
    configuration's (the golden differential-replay suite asserts this at
    Theorem-5 granularity).

    A serial run ({!Sim_exec.serial}, which passes no stages) leaves the
    stages to one [Detector.drain] call at the end (the paper's one-core
    PINT configuration: all core work first, then the access history).
    The simulator given the stages steps them in virtual time; the
    multi-domain executor runs each shard's triple on one pool worker
    ([Systems.micropools] groups them).  Each step
    reports the number of treap-node visits it caused, which is the cost
    its caller charges in virtual time (through the stage's cost hook).

    STINT (Xu et al., ALENEX'22), the serial interval-based detector, is
    {!serial}: one shard's three treaps — last writer, left-most reader and
    right-most reader, the roles of PINT's three treap workers — updated
    synchronously at the end of each strand with the strand's coalesced
    intervals, by the same role steps PINT's stages run.  The paper's STINT
    keeps one reader per location, which suffices because the computation
    executes in depth-first serial order (Feng–Leiserson): the
    left-most-reader policy plus SP pseudo-transitivity guarantees no race
    is missed.  The right-most reader is kept as well, so that STINT
    reports the same deduplicated race set as PINT (Theorem 5), which the
    differential replay checks rely on. *)

type t

(** [make ?seed ?shards ()].

    [shards] (default 1, the paper's three-treap-worker configuration)
    selects the address-range shard count: each shard owns the
    {!Shard.shard_block}-word blocks congruent to it and runs a private
    {writer, lreader, rreader} treap triple; every treap stays sequential,
    so correctness needs no concurrent treap.  The stages share one
    access-history queue of 4096 strands.  The collector hands over up to
    {!Ahq.default_batch} strands per step, in the order one strand per
    step would send them, and a consuming treap worker takes up to as many
    strands per step, amortizing cursor updates and slot-recycling
    checks. *)
val make : ?seed:int -> ?shards:int -> unit -> t

(** [serial ?seed ?obs ()] — STINT: one shard's writer, left-most-reader
    and right-most-reader role steps, applied on the calling thread at each
    strand's finish, with no trace, no AHQ and no stages.  Its treaps are
    seeded by [make]'s rule (default seed 4242), so at equal seeds its
    [writer_visits] are a one-shard PINT run's and its [reader_visits] are
    PINT's [lreader_visits + rreader_visits].  Running it on more than one
    core worker is a usage error, rejected at [driver] time.  [obs]: each
    strand's treap work is a span on the ["stint"] track (arg = treap-node
    visits, which is also the duration on a virtual clock). *)
val serial : ?seed:int -> ?obs:Obs.t -> unit -> Detector.t

(** The configured shard count. *)
val shards : t -> int

(** The generic handle (driver/report/drain) for this instance. *)
val detector : t -> Detector.t

(** Attach an observability session.  Must be called before the first strand
    finishes (i.e. before the executor starts): the run's tracks — one per
    stage, the collector's also carrying the queue's occupancy — and the
    pipeline-latency histograms ("lat.finish_to_collect",
    "lat.finish_to_done") are registered lazily when the first trace record
    arrives.  With a disabled session (the default) every hot-path hook
    short-circuits to the null ring. *)
val set_obs : t -> Obs.t -> unit

(** {2 Stage roles and naming}

    The naming authority shared by obs tracks, Chrome-trace threads and
    the harness's stage clocks: bare ["writer"]/["lreader"]/["rreader"] at
    one shard, ["writer0"], ["lreader2"], … when sharded. *)

type role = Writer | Lreader | Rreader

(** Parse a stage name back to its role and shard ([Some (role, 0)] for the
    bare one-shard names); [None] for non-detector stage names. *)
val role_of_stage_name : string -> (role * int) option

(** [role_mean role clocks] — mean of the named clocks belonging to [role]
    (0 when the role has no stages in the list).  The per-role reduction
    the harness uses on [Sim_exec.stage_clocks] instead of pattern-matching
    name prefixes. *)
val role_mean : role -> (string * int) list -> float

(** {2 Pipeline} *)

(** The pipeline as engine stages, in stage-index order: the collector,
    the shard writer workers (shards ≥ 2), then the [2·N] reader workers;
    stage [i ≥ 1] reads the access-history queue through cursor [i − 1].
    Each step is priced in virtual cycles by {!Cost_model.treap_step_cost}
    over its records and treap-node visits.  The returned stages are
    remembered by the detector: [Detector.drain] drives the same values,
    and their per-stage metrics appear in [Detector.diagnostics] (keys
    [stage.<name>.<counter>], plus [writer_stalls], the achieved
    [ahq_batch] size and the [detect_span] critical path, the slowest
    stage's total price). *)
val stages : t -> Stage.t list

(** [set_backpressure t ~rounds] — let the collector ride out a full
    queue for up to [rounds] {!Backoff} rounds before rejecting an enqueue
    (see {!Ahq.try_enqueue}).  Default 0 (reject immediately) — the only sound setting under single-threaded
    drivers; enable only for real-domain runs, before the run starts.  The
    producer rounds actually waited surface as the [backpressure_waits]
    diagnostic. *)
val set_backpressure : t -> rounds:int -> unit

(** The [rounds] value real-domain callers should pass to
    {!set_backpressure} absent a reason to differ (≈2.5 ms of waiting
    before an enqueue is rejected). *)
val recommended_bp_rounds : int
