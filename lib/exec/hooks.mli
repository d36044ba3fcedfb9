(** The executor ↔ detector contract.

    An executor builds a {!ctx} for the run, asks the detector driver for its
    {!t} (hook set), and then:
    - installs [sink ~wid] as the domain-local {!Access} sink whenever worker
      [wid] executes user code (the executor transparently wraps it to
      maintain each record's [raw_reads]/[raw_writes]/[work] ledgers);
    - calls [on_start]/[on_finish] at every strand boundary, with Algorithm-1
      bookkeeping ([pred]/[child]/[is_spawn]) already applied to the records;
    - calls [on_done] exactly once, after the computation has completed and
      every worker has stopped running user code; pipeline stages (PINT's
      treap workers) finish their backlog after it, since they report
      [`Done] only once it has fired. *)

type ctx = {
  aspace : Aspace.t;
  sp : Sp_order.t;
  n_workers : int;  (** workers that run strands ([Par_exec]'s group holders included) *)
  current : wid:int -> Srec.t;  (** record currently executing on a worker *)
}

type t = {
  sink : wid:int -> Access.sink;
  on_start : wid:int -> Srec.t -> Events.start_kind -> unit;
  on_finish : wid:int -> Srec.t -> Events.finish_kind -> unit;
  on_done : unit -> unit;
}

(** A detector, from the executor's point of view. *)
type driver = ctx -> t

(** Hooks that do nothing (the no-detection baseline). *)
val null_hooks : t

(** [with_counting r sink] wraps a detector sink so that every event also
    bumps the ledgers of the current record provided by [r]. *)
val with_counting : (unit -> Srec.t) -> Access.sink -> Access.sink
