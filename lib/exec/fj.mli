(** The fork-join programming API used by workloads and examples.

    A computation is an ordinary OCaml function that calls these operations;
    which executor actually runs it (the virtual-time simulator, serial at
    one worker, or real multi-domain work stealing) is decided by whoever
    installed the per-domain {e engine}.  The model is Cilk's:

    - [spawn f] — [f] may run in parallel with the rest of the current sync
      block.  The spawned function is its own sync scope (its spawns are
      synced before it returns).
    - [sync ()] — wait for every function spawned in the current scope since
      the last sync.  A sync with no preceding spawn in the block is a no-op
      (not even a strand boundary).
    - [scope f] — run [f] as its own sync scope without spawning it (for
      plain recursive calls that spawn internally); an implicit [sync] runs
      at scope exit.
    - [with_frame ~words k] — stack-allocate [words] float locals for the
      dynamic extent of [k] on the executing worker's simulated cactus stack
      (§III-F); the frame is popped (and scheduled for access-history
      clearing) when [k] returns.

    Memory comes from [alloc_f]/[free_f], thin wrappers over {!Membuf}'s
    float buffers bound to the engine's address space. *)

type engine = {
  e_spawn : (unit -> unit) -> unit;
  e_sync : unit -> unit;
  e_scope : (unit -> unit) -> unit;
  e_with_frame : words:int -> (Membuf.f -> unit) -> unit;
  e_space : Aspace.t;
}

(** [install e] binds the engine for the calling domain.  Executors call
    this; user code never does. *)
val install : engine -> unit

val uninstall : unit -> unit

(** The calling domain's engine.
    @raise Failure if no executor is running. *)
val engine : unit -> engine

val spawn : (unit -> unit) -> unit
val sync : unit -> unit
val scope : (unit -> unit) -> unit
val with_frame : words:int -> (Membuf.f -> unit) -> unit

(** The run's address space. *)
val space : unit -> Aspace.t

val alloc_f : int -> Membuf.f
val free_f : Membuf.f -> unit
