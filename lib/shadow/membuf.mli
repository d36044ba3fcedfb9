(** Instrumented typed buffers over the simulated address space.

    A [Membuf] couples a real OCaml array (the data actually computed on)
    with a virtual base address; every accessor performs the array operation
    {e and} reports the access to the ambient {!Access} sink.  Buffers hold
    floats, the one element type the workloads compute on.  Element
    granularity: one element = one address word (the detectors only see
    word-granular intervals, as STINT does after its 4/8-byte
    normalization).

    Bulk operations ([blit], [fill], [read_range]) issue a single interval
    event covering the whole range — the stand-in for the paper's
    compile-time coalescing of loop nests.

    Heap buffers come from {!alloc_f} and are returned with {!free_f};
    stack "frames" are scoped via {!Frame}. *)

type f

(** {1 Heap buffers} *)

val alloc_f : Aspace.t -> int -> f

(** Logical free: emits the free event; the detector in charge decides when
    the words return to the allocator. *)
val free_f : f -> unit

(** {1 Float buffers} *)

val base_f : f -> int
val length_f : f -> int
val get_f : f -> int -> float
val set_f : f -> int -> float -> unit
val blit_f : f -> int -> f -> int -> int -> unit
val fill_f : f -> int -> int -> float -> unit

(** [read_range_f b off len] reports a bulk read and returns a fresh plain
    array copy of the range (data escapes instrumentation — callers use this
    for verification output). *)
val read_range_f : f -> int -> int -> float array

(** Unsafe/uninstrumented peek used by test oracles and result validation:
    no access event is emitted. *)
val peek_f : f -> int -> float

(** Uninstrumented poke for test setup. *)
val poke_f : f -> int -> float -> unit

(** {1 Stack frames} *)

module Frame : sig
  (** [with_f_hooked space ~worker ~words ~on_pop k] pushes an activation
      frame of [words] float locals on [worker]'s simulated stack, runs [k]
      on the frame buffer, then pops the frame and tells [on_pop] the popped
      interval (base, len) — the hook the executors use to schedule access
      history clearing (§III-F). *)
  val with_f_hooked : Aspace.t -> worker:int -> words:int -> on_pop:(base:int -> len:int -> unit) -> (f -> 'a) -> 'a
end
