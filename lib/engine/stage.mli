(** A pipeline stage: a named step function plus per-stage accounting.

    A stage wraps one logical pipeline worker (PINT's writer treap worker,
    one reader treap worker, …).  All schedulers drive stages exclusively
    through {!exec} (the simulator directly, everything else through
    {!Pipeline.step}), so the counters below are maintained uniformly no
    matter which executor is in charge:

    - [steps] — productive ([`Worked]) steps taken;
    - [records] — pipeline records consumed (batch-aware: one step may
      consume many records, so [records /. steps] is the achieved batch);
    - [visits] — accumulated cost payloads (treap-node visits for PINT);
    - [idles] — steps that found nothing to do upstream;
    - [stalls] — steps blocked on a full downstream queue (backpressure);
    - [minor_words] — words the steps allocated on the minor heap of the
      domain that ran them ([Gc.minor_words] around each step), so
      [minor_words /. records] is the stage's allocation per record.

    A stage is single-consumer: it must be driven by one thread at a time
    (the {!Micropool} worker holding its group, the single-threaded
    simulator, or a drain loop — never two at once). *)

type metrics = {
  mutable steps : int;
  mutable records : int;
  mutable visits : int;
  mutable idles : int;
  mutable stalls : int;
  mutable minor_words : int;
}

type t

(** [make ~name ~cost step] — [cost] converts a step's outcome into
    virtual cycles for the simulator and for virtual-clock spans (PINT's
    stages pass [Cost_model.treap_step_cost]).  It sees both the records
    consumed and the visit payload so that per-record constants are
    charged per record, not per step — a batched step that consumes [n]
    records must not amortize away work that is inherently per-record. *)
val make : name:string -> cost:(records:int -> visits:int -> int) -> (unit -> Step.t) -> t

val name : t -> string

(** Apply the stage's cost hook to a step outcome. *)
val cost : t -> records:int -> visits:int -> int

val metrics : t -> metrics
val reset_metrics : t -> unit

(** Attach an observability track: every subsequent {!exec} emits a
    treap-op span per productive step (virtual-clock spans are priced by
    the stage's [cost] hook, real-clock spans by clock deltas) and
    coalesces consecutive [`Stalled] steps into one stall span.  Defaults
    to {!Evring.null} — tracing disabled, zero per-step cost beyond one
    bool load. *)
val set_ring : t -> Evring.t -> unit

(** Drive the stage one step and record the outcome in its metrics. *)
val exec : t -> Step.t

(** The stage's counters as [("stage.<name>.<counter>", value)] pairs. *)
val diagnostics : t -> (string * float) list
