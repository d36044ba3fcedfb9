(** Real multi-domain work-stealing executor.

    Runs the fork-join computation on OCaml 5 domains with Cilk-style
    continuation stealing, through the strand protocol {!Book} shares with
    {!Sim_exec}: a worker executes the spawned child immediately and parks
    the continuation; non-trivial syncs suspend the function, and the last
    returning child resumes it on its own domain.  The executor keeps only
    its scheduler: each worker parks on its own lock-free Chase-Lev deque
    ({!Cldeque}), and idle workers steal the oldest continuation from a
    random victim — no mutex anywhere on the steal path.

    A run has [n_workers + length pools] workers, each on its own domain:
    the caller's domain runs core worker 0, and the others come from a
    team of domains the executor spawns on first need and keeps, parked
    on a condition variable, between runs, so later runs spawn and join
    no domain.  Each pipeline stage group — for PINT, one per shard's
    {writer, lreader, rreader} treap triple — is held by one extra worker
    for the whole run and stepped by no other domain.  The holder works
    its stages first: after every job segment and before every steal it
    steps its group until a round makes no progress, and only then runs
    strands like a core worker (its own deque, steals); once the root has
    finished and [on_done] has fired, it steps its group until every
    stage reports [`Done].  [shards] thus maps one-to-one onto detection
    cores that also run the program whenever detection has nothing ready
    (DESIGN.md §13).

    Idle workers back off with {!Backoff}: spin ladder first, then parked
    sleeps, so oversubscribed hosts (domains > cores) keep making progress
    instead of starving the domain being waited on.

    [on_done] fires on the caller's domain once every worker has left its
    strand loop.  When a strand (or a hook or a stage step) raises, every
    worker leaves its loop, [on_done] does not fire, the team's domains
    return to their park, and [run] re-raises the first exception.

    Same cactus-stack constraint as the simulator: a [with_frame] body must
    not contain a non-trivial sync. *)

type config = {
  n_workers : int;  (** core workers; worker 0 runs on the caller's domain *)
  seed : int;  (** victim-selection seed (schedules remain nondeterministic) *)
  pools : Stage.t list list;
      (** pipeline stage groups, each held by one extra worker of the run
          (worker [n_workers + i] holds group [i]), which steps it before
          it runs strands; for the PINT detector use {!Systems.micropools}
          on its stages (one group per shard) *)
  obs : Obs.t;
      (** observability session for the per-worker [core<w>] tracks (steal
          and park instants, a group holder's included); {!Obs.disabled}
          (the default) keeps every emit a no-op *)
}

type result = {
  elapsed_s : float;
  n_steals : int;
  n_steal_cas_failures : int;
      (** lost [Cldeque.steal_top] CASes: thief-vs-thief and
          thief-vs-owner races, summed over all deques *)
  n_strands : int;
  n_spawns : int;
  n_nontrivial_syncs : int;
  n_domains : int;  (** domains used: core workers (incl. caller) + group holders *)
  n_parks : int;  (** deep-backoff park episodes, core workers and group holders *)
}

val default_config : config

(** [run ~config ~driver main] runs [main] as the root strand and returns
    once every worker has returned its job, the holders' stages [`Done].
    When a strand, a hook or a stage step raises, [run] re-raises the
    first such exception.
    @raise Invalid_argument on fewer than one core worker. *)
val run : config:config -> driver:Hooks.driver -> (unit -> unit) -> result
