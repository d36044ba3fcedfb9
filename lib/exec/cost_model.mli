(** The virtual-cycle cost model: the one price list for virtual time.

    Every virtual cycle the simulator accounts — the reproduced figures,
    [pint_run -e sim]'s makespan, every [detect_span] diagnostic — is a
    deterministic function of measured event counts (words touched,
    arithmetic operations, instrumentation events, treap-node visits,
    steals) weighted by the constants in [cost_model.ml].  The constants
    were calibrated once against the relative magnitudes the paper reports
    for the [heat] benchmark in Figure 1 and then frozen — every other cell
    of every figure is emergent (see EXPERIMENTS.md for the calibration
    note).  They are the model: there is no other instance of it to pass
    around.

    Semantics of each constant (virtual cycles):
    - [c_flop] — one arithmetic operation in the computation proper;
    - [c_word] — one word of memory traffic in the computation proper;
    - [c_strand], [c_spawn], [c_sync] — runtime bookkeeping at boundaries;
    - [c_coal_word] — per word: the load/store instrumentation hook plus
      runtime coalescing in the interval-based detectors (STINT and PINT);
    - [c_instr_event] — per instrumentation call site event;
    - [c_trace_push] — PINT-only per strand: trace insertion and
      Algorithm-1 bookkeeping;
    - [c_hash_word] — per word for the per-access detector (C-RACER):
      shadow-cell probe, up to three reachability queries, and update;
    - [c_treap_visit], [c_treap_strand] — access-history side of the
      interval detectors: per treap-node visit and per strand handled by a
      treap worker;
    - [c_steal], [c_steal_fail] — work stealing. *)

(** The steal prices {!Sim_exec} charges a thief. *)

val c_steal : int
val c_steal_fail : int

(** Strand prices, charged at a strand's finishing boundary: the
    computation alone, and the computation under each detector's
    instrumentation. *)

val base_cost : Srec.t -> Events.finish_kind -> int
val stint_core_cost : Srec.t -> Events.finish_kind -> int
val pint_core_cost : Srec.t -> Events.finish_kind -> int
val cracer_core_cost : Srec.t -> Events.finish_kind -> int

(** Virtual treap workers an N-shard PINT pipeline occupies (3 per shard:
    writer, lreader, rreader — the collector rides on shard 0's writer).
    The paper's "P cores = (P−3) core workers + 3 treap workers" worker
    accounting, generalized. *)
val treap_workers : shards:int -> int

(** Treap-worker step cost from a step's record and node-visit counts: the
    price of every PINT stage step, and of STINT's three role steps per
    strand.  Charged per record so a batched step cannot amortize the
    per-strand constant [c_treap_strand]. *)
val treap_step_cost : records:int -> visits:int -> int
