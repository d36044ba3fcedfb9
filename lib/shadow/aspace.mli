(** Simulated virtual address space: per-worker stacks + a shared heap.

    Addresses are word-granular integers.  The layout is

    {v
      [0 ............................ max_workers*stack_words)   stacks (2^20 words each)
      [heap_base .................................... brk)       heap
    v}

    {b Stacks} model Cilk's cactus-stack behaviour (§III-F of the paper):
    each worker owns a region and pushes activation frames LIFO.  A frame
    popped while it is not the top (possible when a suspended function's
    frame sits below frames of work the worker picked up after a steal) is
    marked dead and reclaimed lazily once everything above it pops — live
    frames are never reused.  A continuation stolen by another worker pushes
    its subsequent frames on the {e thief's} stack, so, as in real cactus
    stacks, parallel branches never share stack addresses; only a non-stolen
    continuation reuses the returned child's addresses, which is exactly the
    false-race hazard the detectors must neutralize.

    {b Heap} is a first-fit free-list allocator with coalescing, so a freed
    block is immediately re-allocatable — reproducing the heap-reuse hazard
    that PINT's delayed free addresses.

    All heap operations and cross-worker stack bookkeeping are mutex
    protected; per-worker stack operations touch only that worker's state. *)

type t

(** Stack regions, one per worker id below this bound. *)
val max_workers : int

(** A fresh address space; the heap starts empty and grows by bumping
    [brk]. *)
val create : unit -> t

(** {1 Heap} *)

(** [heap_alloc t words] returns the base address of a fresh block.
    @raise Invalid_argument if [words <= 0]. *)
val heap_alloc : t -> int -> int

(** [heap_free t ~base ~len] returns a block to the free list.  Freeing a
    range that is not currently allocated raises [Failure]. *)
val heap_free : t -> base:int -> len:int -> unit

(** [reserve t ~base ~len] marks an arbitrary heap range as a live allocated
    block, carving it out of the free list (and bumping [brk]) as needed.
    Trace replay uses this to reconstruct enough allocator state that a
    recorded [heap_free] succeeds without re-executing the allocations that
    produced it.  Re-reserving a block that is still live with the same
    extent registers a {e nested lifetime}: the capture run may have
    recycled the base eagerly while the replaying detector frees lazily
    (PINT's delayed recycling), so the same [(base, len)] can be reserved
    again before its first recorded free is processed — each extra
    reservation is consumed by one matching [heap_free] before the block is
    actually returned to the free list.
    @raise Invalid_argument on non-positive [len] or a range that straddles
    an existing live block without matching it exactly. *)
val reserve : t -> base:int -> len:int -> unit

(** Currently allocated heap words. *)
val heap_live_words : t -> int

(** True iff [base] was handed out by [heap_alloc] with length [len] and not
    yet freed. *)
val heap_block_live : t -> base:int -> len:int -> bool

(** {1 Stacks} *)

(** [frame_push t ~worker ~words] pushes an activation frame on [worker]'s
    stack and returns its base address.
    @raise Invalid_argument on bad worker id or non-positive size.
    @raise Failure on stack overflow. *)
val frame_push : t -> worker:int -> words:int -> int

(** [frame_pop t ~worker ~base] marks the frame at [base] dead; space is
    reclaimed once no live frame sits above it.
    @raise Failure if no such frame is live on that worker's stack. *)
val frame_pop : t -> worker:int -> base:int -> unit

(** Words currently in use (live or awaiting lazy reclaim) on a stack. *)
val stack_used : t -> worker:int -> int

(** True iff [addr] falls in some worker's stack region. *)
val is_stack_addr : t -> int -> bool
