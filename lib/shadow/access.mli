(** Ambient access-event sink: the instrumentation hook.

    This is the seam where a compiler would insert read/write hooks (Tapir in
    the paper); here every [Membuf] accessor calls into the per-domain sink.
    Executors install a sink wired to the active detector before running user
    code; the default sink ignores everything, so uninstrumented use of
    buffers is harmless. *)

type sink = {
  on_read : addr:int -> len:int -> unit;
  on_write : addr:int -> len:int -> unit;
  on_free : base:int -> len:int -> unit;
      (** A heap buffer was logically freed.  The sink decides when the
          address range actually returns to the allocator (PINT delays it
          until the freeing strand is collected). *)
  on_compute : amount:int -> unit;
      (** [amount] arithmetic operations were performed — pure cost-model
          accounting, ignored by detectors. *)
}

(** A sink that drops all events. *)
val noop : sink

(** [install s] sets the calling domain's sink. *)
val install : sink -> unit

(** Reset the calling domain's sink to {!noop}. *)
val uninstall : unit -> unit

val emit_read : addr:int -> len:int -> unit
val emit_write : addr:int -> len:int -> unit
val emit_free : base:int -> len:int -> unit

val emit_compute : amount:int -> unit
