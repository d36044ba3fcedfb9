(** Predictive race detection over captured traces.

    PINT (and the replay layer) certify races of the {e observed} schedule:
    Theorem 5 makes the deduplicated race set a schedule-invariant fact of
    the access history that actually ran.  This module answers a stronger
    question about a single captured trace: which conflicting pairs did the
    observed schedule merely {e serialize} — pairs unordered by the
    program-order + sync core that some other legal schedule would have run
    side by side?  Following the short-race framing of "Efficient Dynamic
    Algorithms to Predict Short Races" (see PAPERS.md), we bound the search
    to {e window-bounded} reorderings and keep the must-happen-before core
    exact, so every prediction is backed by a concrete witness schedule.

    {2 Semantics}

    Let positions [0..n-1] be the trace's entry order (PINTRACE entries
    appear in finish order, so position order is a linearization of the
    strand DAG).  A {e permissible reordering} for window [w] is a bijection
    σ from strands to slots such that σ is a linear extension of the strand
    DAG and no strand moves more than [w] slots: [|σ(s) - pos(s)| <= w].

    A pair [(u, v)] with [pos u < pos v] is {e w-predictable} iff
    - their interval sets conflict (write/write, write/read or read/write),
    - they are logically parallel in SP order,
    - the conflicting region survives reuse suppression (below), and
    - some permissible reordering for [w] runs them {e adjacently} (in
      either order) — the strongest evidence a bounded reordering can give
      that nothing the trace recorded separates them.

    Predictability is monotone in [w]: every permissible reordering for [w]
    is permissible for [w+1], so predictions at [w] ⊆ predictions at [w+1].

    {2 Reuse suppression (soundness caveat)}

    Traces record {e addresses}, not object identities: a stack frame
    cleared at return, or a heap range freed, can be re-allocated and the
    same address then denotes a different object.  A conflicting pair whose
    region was wiped in between is therefore not evidence of a race.  We
    subtract from each conflicting region the clears/frees of [u] itself
    (its frame dies with it — any later access at those addresses is a new
    object) and of every strand [f] strictly between [u] and [v] in position
    order with [f ~> v] in SP order (the wipe precedes [v]'s access in
    {e every} schedule); a pair whose region is fully wiped is dropped.
    Wipes by strands {e parallel} to [v] are not subtracted — the observed
    schedule happened to run the wipe first, but a reordering need not —
    which is exactly what makes free-hidden pairs predictable.  The rule is
    deliberately conservative (it can under-report across racing frees) and
    mirrors the detectors' processing order: a strand's accesses are checked
    against the pre-strand history {e before} its own clears apply, so a
    strand's own wipes never hide pairs in which it is the later access.

    Predicted pairs already in the observed race set (either orientation at
    the Theorem-5 granularity) are subtracted: the two reports are disjoint
    by construction, and a predicted race never enters a detector's
    deduplication table — see {!Report.origin}. *)

(** One strand of the reordering universe.  [pos] is the trace entry index
    (observed-schedule position); [id] is the strand's {!Sp_order.id}, the
    id space race reports use; [preds]/[succs] are strand-DAG neighbours as
    positions (edges always point to strictly larger positions, since a
    DAG successor can only finish after its predecessor).  [wipes] are the
    strand's stack clears and heap frees as address intervals. *)
type node = {
  pos : int;
  uid : int;
  id : int;
  sp : Sp_order.strand;
  reads : Interval.t array;
  writes : Interval.t array;
  wipes : Interval.t list;
  preds : int list;
  succs : int list;
}

(** A decoded strand DAG: [nodes.(p)] is the strand at position [p]. *)
type dag = { sp : Sp_order.t; nodes : node array }

(** Incremental DAG builder fed by a {!Replay.strand_observer} — build the
    DAG in the same pass that runs observed detection, offline
    ({!Replay.run}) or streaming ({!Replay.Session.create}). *)
module Builder : sig
  type t

  val create : unit -> t

  (** The observer to pass to replay; call at most one replay's worth. *)
  val observer : t -> Replay.strand_observer

  (** Finalize.  @raise Failure if no strand was observed or the recorded
      positions/links are inconsistent. *)
  val dag : t -> dag

  (** Strands observed so far. *)
  val count : t -> int
end

(** [dag_of_trace tf] — decode a trace's DAG by replaying it through the
    no-detection baseline. *)
val dag_of_trace : Tracefile.t -> dag

(** A predicted race: [prior]/[current] are the {!Sp_order.id}s of the
    earlier- and later-{e positioned} strands, [where] is the
    lowest-addressed surviving conflict interval (deterministic). *)
type finding = { kind : Report.kind; prior : int; current : int; where : Interval.t }

type result = {
  window : int;
  predicted : finding list;  (** ordered by (prior, current, kind) *)
  diagnostics : (string * float) list;
      (** deterministic counters; [predict_candidates] (conflicting
          parallel in-window pairs) and [predict_windows] (adjacency pins
          tried) are benchmark-gated, [predict_edf_slots] counts the EDF
          slots re-run over all pins, [predict_pair_scans] the in-window
          pairs tested *)
}

(** [predict ~window ~observed dag] — the production predictor.

    Candidates come from a direct scan: each strand is tested against the
    ≤ 2w+1 strands positioned before it for interval overlap (merge walk)
    and SP parallelism.

    Adjacency feasibility is decided exactly: displacement windows
    [\[pos-w, pos+w\]] are folded through the DAG edges (release ≥ pred
    release + 1, deadline ≤ succ deadline - 1), the pair is pinned to two
    adjacent slots, and the pinned instance is scheduled by earliest
    deadline first — exact for unit jobs with release times and deadlines,
    and precedence-safe because folded windows strictly increase along
    edges.  Each pin is local: the fold re-tightens only the nodes whose
    window changes, and EDF restarts from a checkpoint of one base EDF run
    (its pending set at slot boundary [s] lies within positions
    [\[s-w, s+w)]) at the first release of a changed node, stopping as
    soon as the run is past every changed deadline with the base run's
    pending set — from there the two runs are identical and the base run
    is feasible.  The whole analysis is linear in the trace length for a
    fixed window.

    [observed] is the observed race set to subtract (any detector's — by
    Theorem 5 they agree). *)
val predict : window:int -> observed:Report.race list -> dag -> result

(** [candidates ~window dag] — the candidate pairs {!predict} checks for
    feasibility, as [(upos, vpos)] positions in scan order: [upos < vpos
    <= upos + 2w+1], conflicting interval sets, SP-parallel strands. *)
val candidates : window:int -> dag -> (int * int) list

(** The exact adjacency-feasibility core of {!predict}, over the DAG's
    [preds]/[succs] alone (positions [0..n-1] must be a linear extension). *)
module Sched : sig
  type t

  (** Fold the base windows and run (and checkpoint) EDF once. *)
  val make : window:int -> dag -> t

  (** [pin t ~a ~b ~p] — does some permissible reordering put [a] at slot
      [p] and [b] at slot [p+1]? *)
  val pin : t -> a:int -> b:int -> p:int -> bool

  (** EDF slots re-run by all [pin]s so far (a pin rejected by the fold
      alone, or changing no window, re-runs none). *)
  val edf_slots : t -> int
end

(** Brute-force certification oracle: explores {e all} permissible
    reorderings with a subset dynamic program over the 2w+1 positions in
    flight (forward-reachable states × memoized completability), using its
    own transitive closure over the DAG links, its own nested-loop conflict
    detection and its own reuse subtraction.  Agrees with {!predict}
    finding-for-finding, witnesses included.
    @raise Invalid_argument if [window > 10] (state space is 2^(2w+1)). *)
val oracle : window:int -> observed:Report.race list -> dag -> finding list

(** Theorem-5-style key. *)
val finding_key : finding -> Report.kind * int * int

val equal_findings : finding list -> finding list -> bool
val pp_finding : Format.formatter -> finding -> unit
