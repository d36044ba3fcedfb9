(** Real multi-domain work-stealing executor.

    Runs the fork-join computation on OCaml 5 domains with Cilk-style
    continuation stealing, through the strand protocol {!Book} shares with
    {!Sim_exec}: a worker executes the spawned child immediately and parks
    the continuation; non-trivial syncs suspend the function, and the last
    returning child resumes it on its own domain.  The executor keeps only
    its scheduler: each worker parks on its own lock-free Chase-Lev deque
    ({!Cldeque}), and idle workers steal the oldest continuation from a
    random victim — no mutex anywhere on the steal path.

    Pipeline stages run on a {!Micropool} with one pinned worker domain
    per stage group — for PINT, one per shard's {writer, lreader, rreader}
    treap triple — stepped round by round with {!Backoff} when the group is
    unproductive, so the executor uses [n_workers + length pools] domains
    total and [shards] maps one-to-one onto detection cores (DESIGN.md
    §13).

    Idle core workers back off the same way: spin ladder first, then
    parked sleeps, so oversubscribed hosts (domains > cores) keep making
    progress instead of starving the domain being waited on.

    Same cactus-stack constraint as the simulator: a [with_frame] body must
    not contain a non-trivial sync. *)

type config = {
  n_workers : int;
  seed : int;  (** victim-selection seed (schedules remain nondeterministic) *)
  pools : Stage.t list list;
      (** pipeline stage groups, one pinned micropool worker each; for
          the PINT detector use {!Systems.micropools} on its stages (one
          group per shard) *)
  obs : Obs.t;
      (** observability session for the per-domain tracks ([core<w>] steal
          and park instants, [pool<k>] park instants); {!Obs.disabled} (the
          default) keeps every emit a no-op *)
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
  n_domains : int;  (** domains used: core workers (incl. caller) + pools *)
  n_parks : int;  (** deep-backoff park episodes, workers + pools *)
}

val default_config : config

val run : config:config -> driver:Hooks.driver -> (unit -> unit) -> result
