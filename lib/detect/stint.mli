(** STINT (Xu et al., ALENEX'22): the serial interval-based race detector.

    Three treaps — last writer, left-most reader and right-most reader,
    the roles of PINT's three treap workers — updated synchronously at the
    end of each strand with the strand's coalesced intervals.  The paper's
    STINT keeps one reader per location, which suffices because the
    computation executes in depth-first serial order (Feng–Leiserson): the
    left-most-reader policy plus SP pseudo-transitivity guarantees no race
    is missed.  The right-most reader is kept as well so that STINT
    reports the same deduplicated race set as PINT (Theorem 5), which the
    differential replay checks rely on.

    Must be run on one core worker ({!Sim_exec.serial}, or the simulator
    at one worker); running it on more is a usage error (its treaps are not synchronized) and is
    rejected at [driver] time when [ctx.n_workers > 1]. *)

(** [obs]: with a live session, each strand's treap processing is emitted
    as a span on the ["stint"] track (span arg = treap-node visits; on a
    virtual clock the visit count is also the duration). *)
val make : ?seed:int -> ?obs:Obs.t -> unit -> Detector.t
