(* Chase-Lev work-stealing deque (Chase & Lev, SPAA'05, with the CAS
   discipline of Lê et al., PPoPP'13), on OCaml 5 atomics.

   Single-owner bottom end: [push_bottom]/[pop_bottom] may be called only
   by the deque's owning domain.  Any number of thieves call [steal_top]
   concurrently; the race for the last element (and between thieves) is
   decided by one compare-and-set on [top].  No mutex anywhere — the owner
   never waits for thieves and a thief never waits for the owner, which is
   exactly what the executor's steal hot path needs (ROADMAP item 2; the
   mutex-based Lockdq this replaces serialized every push against every
   steal probe).

   Memory-ordering argument (DESIGN.md §13): OCaml's [Atomic] operations
   are all sequentially consistent, which is strictly stronger than the
   acquire/release/seq_cst fences the C11 formulation of this algorithm
   needs, so the classic proof carries over unchanged:

   - publication: the owner plain-writes the slot, then SC-stores the
     incremented [bottom].  A thief SC-loads [bottom] before reading the
     slot, so the slot write happens-before the read (the OCaml memory
     model's message-passing guarantee for non-atomic writes ordered by an
     atomic store/load pair).
   - last-element race: both the owner's [pop_bottom] (when it observes
     [b = t]) and every thief fight over the same [compare_and_set top];
     exactly one wins, so the element is transferred exactly once.
   - growth: only the owner replaces the buffer.  The new array carries
     every element in [top, bottom) at its new masked position and is
     published by the plain [buf] store before the next [bottom] publish;
     a thief holding the stale buffer still reads correct values because
     cells of the old array in [top, bottom) are never written again —
     they are immutable history, and the top CAS still arbitrates.

   The deque is bounded in steady state: the ring starts at [capacity]
   slots (rounded up to a power of two) and only grows — by doubling,
   owner-side — when a push finds it full, which for the executor means
   spawn nesting deeper than the initial bound. *)

(* The two happens-before edges below are machine-checked by pint_lint R5
   against the [@pint.publishes]/[@pint.acquires] annotations on the
   operations (OWNERSHIP.md [edges:] rows, DESIGN.md §15):
   - "cld.slot": slot writes ride the owner's SC [bottom] store (or are
     arbitrated by the [top] CAS for the last element),
   - "cld.buf":  the grown buffer rides the next [bottom] publish; stale
     buffers stay readable because replaced cells are immutable history. *)
type 'a buf = {
  b_slots : 'a array [@pint.publishes "cld.slot"];
  b_mask : int; (* Array.length b_slots - 1; power-of-two capacity *)
}

type 'a t = {
  top : int Atomic.t; (* next slot to steal; thieves CAS it forward *)
  bottom : int Atomic.t; (* next slot to push; owner-written, thief-read *)
  mutable buf : 'a buf [@pint.publishes "cld.buf"];
      (* owner-replaced on growth; thieves may read stale *)
  dummy : 'a; (* fills empty slots so the array holds no stale payloads *)
  steal_fails : int Atomic.t; (* lost top CASes, summed across thieves *)
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create ?(capacity = 256) ~dummy () =
  if capacity < 1 then invalid_arg "Cldeque.create: capacity must be positive";
  let cap = pow2 capacity 1 in
  {
    top = Atomic.make 0;
    bottom = Atomic.make 0;
    buf = { b_slots = Array.make cap dummy; b_mask = cap - 1 };
    dummy;
    steal_fails = Atomic.make 0;
  }

let steal_cas_failures t = Atomic.get t.steal_fails

(* Owner-only: double the ring, re-masking every live element.  The old
   array is left untouched (thieves may still be reading it). *)
let[@pint.publishes "cld.slot cld.buf"] [@pint.acquires "cld.slot cld.buf"] grow t ~b ~tp =
  let old = t.buf in
  let cap = (old.b_mask + 1) * 2 in
  let nbuf = { b_slots = Array.make cap t.dummy; b_mask = cap - 1 } in
  for i = tp to b - 1 do
    nbuf.b_slots.(i land nbuf.b_mask) <- old.b_slots.(i land old.b_mask)
  done;
  t.buf <- nbuf

let[@pint.hot] [@pint.publishes "cld.slot"] [@pint.acquires "cld.buf"] push_bottom t x =
  let b = Atomic.get t.bottom in
  let tp = Atomic.get t.top in
  if b - tp > t.buf.b_mask then grow t ~b ~tp;
  let buf = t.buf in
  buf.b_slots.(b land buf.b_mask) <- x;
  (* SC store publishes the slot write to thieves *)
  Atomic.set t.bottom (b + 1)

let[@pint.hot] [@pint.publishes "cld.slot"] [@pint.acquires "cld.slot cld.buf"] pop_bottom t =
  let b = Atomic.get t.bottom - 1 in
  (* reserve the bottom slot before reading top: a thief that loads the
     old bottom afterwards can no longer claim this slot uncontested *)
  Atomic.set t.bottom b;
  let tp = Atomic.get t.top in
  if b > tp then begin
    (* more than one element: the slot is ours without arbitration *)
    let buf = t.buf in
    let x = buf.b_slots.(b land buf.b_mask) in
    buf.b_slots.(b land buf.b_mask) <- t.dummy;
    Some x
  end
  else if b = tp then begin
    (* last element: settle the race with any thief via the top CAS *)
    let buf = t.buf in
    let x = buf.b_slots.(b land buf.b_mask) in
    let won = Atomic.compare_and_set t.top tp (tp + 1) in
    Atomic.set t.bottom (b + 1);
    if won then begin
      buf.b_slots.(b land buf.b_mask) <- t.dummy;
      Some x
    end
    else None
  end
  else begin
    (* already empty: undo the reservation *)
    Atomic.set t.bottom (b + 1);
    None
  end

let[@pint.hot] [@pint.acquires "cld.slot cld.buf"] steal_top t =
  let tp = Atomic.get t.top in
  let b = Atomic.get t.bottom in
  if tp >= b then None
  else begin
    (* read the element before the CAS: once top moves, the owner may
       recycle the slot.  A stale [buf] is safe — cells in [top, bottom)
       of a replaced buffer are immutable history (see header). *)
    let buf = t.buf in
    let x = buf.b_slots.(tp land buf.b_mask) in
    if Atomic.compare_and_set t.top tp (tp + 1) then Some x
    else begin
      Atomic.incr t.steal_fails;
      None
    end
  end

(* Snapshot emptiness test: exact when the deque is quiescent (the
   executor's post-run assertion), a racy hint otherwise. *)
let is_empty t = Atomic.get t.top >= Atomic.get t.bottom
