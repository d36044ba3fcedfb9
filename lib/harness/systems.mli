(** Run one (workload, race-detection system, worker count) configuration
    under the virtual-time simulator and return its measurements.

    Worker-count convention: [workers] is the number of {e core} workers in
    the simulated runtime.  For PINT the three treap workers ride on top
    (the paper's "P cores = (P−3) core workers + 3 treap workers" becomes
    [workers = P - 3] at the call site); for the baseline and C-RACER all
    [P] cores are core workers; STINT is serial and ignores [workers].

    One-core semantics matches §IV-A: PINT on one core runs the whole core
    component first and then the access-history component, so its time is
    the sum (not the max) of the component times. *)

type system = Base | Stint_sys | Pint_sys | Cracer_sys

(** The detector names {!make_detector} accepts, in canonical order. *)
val detector_names : string list

(** [make_detector ?seed ?shards name] — the one place a detector is
    constructed from its command-line name ([none], [stint], [cracer] or
    [pint]); shared by [pint_run], [pint_replay] and the bench harness so
    the selection logic cannot drift.

    Returns the detector handle together with the pipeline stages an
    executor must drive for it — empty for the synchronous detectors, the
    writer + reader treap-worker stages for PINT (the same {!Stage.t} values
    the detector's own [drain] falls back to, so metrics accumulate in one
    place no matter who steps them; each step is priced by
    {!Cost_model.treap_step_cost}).  [seed] defaults to each detector's own
    default; [shards] (PINT only) selects the address-range shard count —
    each shard runs its own {writer, lreader, rreader} treap triple off the
    one access-history queue.  [obs] (default {!Obs.disabled}) attaches an
    observability session: detector-side tracks and histograms are
    registered here, and for PINT each pipeline stage gets the session ring
    matching its stage name, so stage spans and AHQ counters land on the
    right Chrome-trace track.  [bp_rounds] (PINT only, default 0) enables
    collector backpressure for real-domain runs (see
    {!Pint_detector.set_backpressure}) — leave 0 for [seq]/[sim].  [None]
    for an unknown name. *)
val make_detector :
  ?seed:int ->
  ?shards:int ->
  ?obs:Obs.t ->
  ?bp_rounds:int ->
  string ->
  (Detector.t * Stage.t list) option

(** [strand_cost name] — the {!Cost_model} strand price of the detector
    named [name] (one of {!detector_names}): {!Cost_model.base_cost} for
    [none], the detector's instrumented core cost otherwise.  The one map
    from a detector to its [Sim_exec.config.strand_cost], used by {!run},
    [pint_run -e sim] and the bench harness's simulated cases.
    @raise Invalid_argument for an unknown name. *)
val strand_cost : string -> Srec.t -> Events.finish_kind -> int

(** [micropools stages] — group a flat stage list into shard stage
    groups: stages sharing a shard index (per
    {!Pint_detector.role_of_stage_name}) form one group, in shard order;
    unrecognized stages get singleton groups.  Each group is stepped by
    one domain.  The one grouping every real-domain caller uses:
    [Par_exec.config.pools] (one holder worker per group, which runs
    strands while its stages are idle) and the pint_serve sessions'
    [Micropool.submit]. *)
val micropools : Stage.t list -> Stage.t list list

type measurement = {
  system : string;
  workload : string;
  workers : int;  (** core workers *)
  time : float;  (** virtual cycles for the whole run *)
  core_time : float;  (** core-component makespan *)
  writer_time : float;
  lreader_time : float;
  rreader_time : float;
  races : int;
  checked : bool;  (** result verification outcome *)
  n_steals : int;
  n_strands : int;
  diags : (string * float) list;
}

(** [shards] (default 1) runs PINT with the N-shard access-history
    topology (shards × {writer, lreader, rreader} treap workers sharing
    one access-history queue); ignored for the other systems.  Every run is priced by
    {!strand_cost} and {!Cost_model.treap_step_cost} — STINT's synchronous
    access history as three treap steps per strand, after its core
    makespan — and seeded with 2022 (scheduler) and 2029 (treaps). *)
val run :
  ?shards:int ->
  workload:Workload.t ->
  size:int ->
  base:int ->
  workers:int ->
  system ->
  measurement

(** [vsec cycles] — virtual cycles rendered as "virtual seconds"
    (1 vs = 10⁶ cycles), the unit the figure tables print. *)
val vsec : float -> float
