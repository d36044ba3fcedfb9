(** Virtual-time work-stealing simulator.

    Executes the fork-join computation {e for real} (every strand's user code
    runs, every detector data structure is exercised) on one OS thread, while
    simulating P core workers of a Cilk-style continuation-stealing runtime
    in discrete virtual time.  This is the performance substrate for every
    figure in the paper's evaluation (see DESIGN.md §2: the container has one
    physical core, so wall-clock parallel measurements are replaced by a
    deterministic model driven by measured event counts).

    The strand protocol — frames, spawn, sync, return and steal handling,
    the {!Fj} engine — is {!Book}'s, shared with {!Par_exec}: a worker
    executes spawned children first and parks the continuation on its
    deque, non-trivial syncs suspend the frame and the last returning child
    resumes it on its own worker, as in Cilk.  The simulator keeps only its
    scheduler:
    - each virtual worker has a clock; the scheduler always advances the
      lowest-clock runnable worker, so interleaving is clock-causal and, with
      a fixed seed, bit-reproducible;
    - a worker's deque is a list of continuations with their push times; an
      idle worker steals from the top of a random victim's deque, paying
      [c_steal], and can only take an item whose push time has passed;
    - a strand's cost is charged at its finishing boundary via the
      [strand_cost] closure — the harness supplies per-detector cost models;
      a fiber's last strand is charged when the fiber finishes, and its
      return resolves on the worker's next turn;
    - pipeline {e stages} (PINT's treap workers, as engine {!Stage}s) are
      stepped after every core event and accumulate their processing costs
      on their own clocks; the run's [total] is the max over all component
      clocks, and the stages' own metrics accumulate through {!Stage.exec}
      exactly as they do on real domains.

    At one worker the simulator is also the serial executor: {!serial} runs
    the computation as its serial elision — every spawned child first,
    continuations never stolen, every sync trivial — which is the execution
    of STINT (the serial baseline) and of PINT's one-core configuration.

    Constraint inherited from the cactus-stack simulation: a [with_frame]
    body must pop on the worker that pushed it, i.e. it must not contain a
    non-trivial sync; violations fail fast with an explicit error. *)

type config = {
  n_workers : int;
  seed : int;
  strand_cost : Srec.t -> Events.finish_kind -> int;
  c_steal : int;
  c_steal_fail : int;
  stages : Stage.t list;  (** pipeline stages stepped in virtual time *)
  obs_clock : Clock.t;
      (** profiling clock (default {!Clock.null}); when a manual clock from
          a live [Obs] session is supplied, the simulator pins it to the
          acting worker's or stage's virtual timeline before every hook and
          stage step, making seeded profiled runs trace-deterministic *)
}

type result = {
  makespan : int;  (** max core-worker clock *)
  total : int;  (** max over core workers and stages *)
  worker_clocks : int array;
  stage_clocks : (string * int) list;
  n_steals : int;
  n_failed_steals : int;
  n_strands : int;
  n_spawns : int;
  n_nontrivial_syncs : int;
  core_work : int;  (** sum of all strand costs (1-worker-equivalent time) *)
}

val default_config : config

(** The serial elision with no virtual time: one worker, every strand costs
    0, no stages.  A PINT detector run this way leaves all access-history
    work to its [Detector.drain] after the run (the paper's one-core
    configuration); passing its stages instead steps them after every core
    event, as [pint_run -e sim -p 1] does. *)
val serial : config

(** [run ~config ~driver main] — simulate [main] under [config] with the
    given detector.  Deterministic in ([config.seed], program). *)
val run : config:config -> driver:Hooks.driver -> (unit -> unit) -> result
