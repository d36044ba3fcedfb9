(* Cross-domain soundness (audited for the real-domain executor, where the
   producer and every reader run on distinct domains) — machine-checked by
   pint_lint's R5/R6 whole-program passes (DESIGN.md §15), not just argued
   here.

   OCaml 5 atomics are sequentially consistent, and the memory model gives
   publication safety: a plain write that happens-before an atomic write is
   visible to any domain that observes that atomic write.  Every plain
   field here rides one of two named happens-before edges, declared as
   [@pint.publishes]/[@pint.acquires] attributes below and wired to the
   [edges:]/[private:] owner-context rows in OWNERSHIP.md:

   - ["ahq.slot"] (slot publication) — [try_enqueue] plain-writes
     [slots.(h mod cap)] BEFORE [Atomic.incr head] (its releasing write);
     a reader only touches a slot after reading [head] past it, so it sees
     the full record.  [head] is written by the single producer only.
     Publisher: [try_enqueue].  Acquirer: [peek_batch_into], the one
     reader entry point that reaches [slot_at] — the lint pass proves no
     spawned path reads a slot without passing one.
   - ["ahq.recycle"] (slot recycling) — [advance_n] plain-clears a slot
     only when every OTHER cursor (read atomically) is already past it,
     and BEFORE atomically advancing its own cursor (its releasing
     write); the producer only reuses a slot after its cursor scan reads
     all cursors past it — that scan ([has_room], inlined into
     [try_enqueue]) is the acquiring read, so the clear is published to
     the producer before any reuse, and no reader can still be peeking a
     cleared slot (peeks start at the reader's own cursor).
   - writer-private caches and counters — [cached_min], [min_rescans],
     [peak_occ], [rejects], [bp_waits] are touched only by the single
     producer ([private:] rows; cross-domain reads are post-drain
     diagnostics accessors); [cached_min] is a monotone lower bound on
     the cursor minimum (cursors only advance), so a stale value is only
     ever conservative: it can under-report room, never invent it.

   The one deliberately racy read is the occupancy sample in [advance_n]
   (another reader may advance between our snapshot and the emit) — it is
   an observability sample, not a correctness input. *)

type reader = int

type t = {
  (* a slot no record occupies holds [Srec.placeholder] *)
  slots : Srec.t array [@pint.publishes "ahq.slot ahq.recycle"];
  cap : int;
  head : int Atomic.t; (* total enqueued; writer-owned *)
  cursors : int Atomic.t array; (* total processed, per reader *)
  (* Writer-private cache of the last observed minimum cursor.  Cursors only
     move forward, so any value once read stays a valid lower bound: while
     [head - cached_min < cap] the ring provably has room and the enqueue
     can skip the cursor scan entirely.  Only rescanned when the cached
     bound would reject the enqueue.  Written solely by the (single) writer,
     hence no atomic needed. *)
  mutable cached_min : int;
  mutable min_rescans : int;
  (* Writer-private occupancy high-water mark (against the cached bound, so
     conservative the same way the emitted samples are). *)
  mutable peak_occ : int;
  (* Writer-private backpressure counters: enqueues rejected on a ring that
     stayed full, and backoff rounds waited for one to drain. *)
  mutable rejects : int;
  mutable bp_waits : int;
  (* observability hooks, installed before the pipeline starts; the writer
     ring is written only from [try_enqueue] (writer stage), reader ring
     [i] only from reader [i]'s [advance_n].  Evring.null when disabled. *)
  mutable obs_w : Evring.t;
  mutable obs_r : Evring.t array;
}

let create ~capacity ~readers =
  if capacity <= 0 then invalid_arg "Ahq.create: capacity must be positive";
  if readers < 1 then invalid_arg "Ahq.create: need at least one reader";
  {
    slots = Array.make capacity Srec.placeholder;
    cap = capacity;
    head = Atomic.make 0;
    cursors = Array.init readers (fun _ -> Atomic.make 0);
    cached_min = 0;
    min_rescans = 0;
    peak_occ = 0;
    rejects = 0;
    bp_waits = 0;
    obs_w = Evring.null;
    obs_r = Array.make readers Evring.null;
  }

let set_obs t ~writer ~readers =
  if Array.length readers <> Array.length t.cursors then
    invalid_arg "Ahq.set_obs: one reader ring per cursor";
  t.obs_w <- writer;
  t.obs_r <- readers

(* Int-specialized min: [Stdlib.min] is an out-of-line call into the
   polymorphic compare runtime even at int (pint_lint rule R2 flags it on
   hot paths); [<=] at a known int type compiles to one machine compare. *)
let imin (a : int) b = if a <= b then a else b

let min_cursor t =
  Array.fold_left (fun m c -> imin m (Atomic.get c)) max_int t.cursors

(* Writer-side room probe: refreshes the cached cursor minimum only when
   the cached bound would reject the enqueue.  With a single producer,
   room observed here cannot shrink before the enqueue that follows:
   readers only ever create room. *)
let[@pint.hot] has_room t =
  let h = Atomic.get t.head in
  h - t.cached_min < t.cap
  || begin
       t.min_rescans <- t.min_rescans + 1;
       t.cached_min <- min_cursor t;
       h - t.cached_min < t.cap
     end

(* A full ring: re-probe after each of up to [rounds] backoff rounds, and
   count a reject if it stays full.  With readers on other domains a full
   ring is a transient, which the wait rides out; under a single-threaded
   driver [rounds] is 0 and the enqueue is rejected at once. *)
let rec wait_for_room t rounds round =
  if round >= rounds then begin
    t.rejects <- t.rejects + 1;
    false
  end
  else begin
    t.bp_waits <- t.bp_waits + 1;
    Backoff.relax round;
    has_room t || wait_for_room t rounds (round + 1)
  end

(* [@pint.publishes "ahq.slot"]: the slot write is ordered before the
   [Atomic.incr head] release.  [@pint.acquires "ahq.recycle"]: the
   cursor scan in [has_room] is the acquiring read that orders every
   reader's slot-clear before this producer's reuse of the slot. *)
let[@pint.hot] [@pint.publishes "ahq.slot"] [@pint.acquires "ahq.recycle"] try_enqueue t ~rounds s =
  if not (has_room t || wait_for_room t rounds 0) then false
  else begin
    let h = Atomic.get t.head in
    t.slots.(h mod t.cap) <- s;
    Atomic.incr t.head;
    (* occupancy sample against the cached bound: conservative (the true
       occupancy may be lower) but free, and exact whenever the cache was
       just refreshed *)
    let occ = h + 1 - t.cached_min in
    if occ > t.peak_occ then t.peak_occ <- occ;
    Evring.emit t.obs_w ~kind:Ev.enqueue ~arg:occ;
    true
  end

let cursor t i =
  if i < 0 || i >= Array.length t.cursors then invalid_arg "Ahq: bad reader index";
  t.cursors.(i)

let slot_at t pos =
  let s = t.slots.(pos mod t.cap) in
  if s == Srec.placeholder then failwith "Ahq: published slot is empty";
  s

let default_batch = 32

(* The reader entry point that dereferences slots acquires "ahq.slot": the
   [Atomic.get t.head] bound check is the acquiring read matching the
   producer's release in [try_enqueue]. *)
let[@pint.hot] [@pint.acquires "ahq.slot"] peek_batch_into t i buf =
  let cap = Array.length buf in
  if cap = 0 then invalid_arg "Ahq.peek_batch_into: empty buffer";
  let pos = Atomic.get (cursor t i) in
  let n = imin (Atomic.get t.head - pos) cap in
  if n <= 0 then 0
  else begin
    for k = 0 to n - 1 do
      buf.(k) <- slot_at t (pos + k)
    done;
    n
  end

(* [@pint.publishes "ahq.recycle"]: the slot clears are ordered before the
   [Atomic.set c] cursor release that lets the producer reuse them. *)
let[@pint.publishes "ahq.recycle"] advance_n t i n =
  if n <= 0 then invalid_arg "Ahq.advance_n: n must be positive";
  let c = cursor t i in
  let pos0 = Atomic.get c in
  if pos0 + n > Atomic.get t.head then failwith "Ahq.advance_n: nothing pending";
  (* Recycle the record references for the slots every other reader has
     already moved past.  Clearing must happen BEFORE our cursor advances:
     while our cursor still sits at [pos0] the writer cannot reuse any of
     these slots (the ring occupancy check uses the minimum cursor), so the
     clear can never wipe a freshly enqueued record.  One snapshot of the
     other cursors suffices for the whole batch — cursors only move
     forward, so [pos < min_other] stays true once observed.  If two
     readers pass a slot simultaneously, neither sees the other as "past"
     and the stale reference is simply overwritten by the writer on reuse —
     harmless. *)
  let min_other = ref max_int in
  Array.iteri (fun j other -> if j <> i then min_other := imin !min_other (Atomic.get other)) t.cursors;
  let clear_upto = imin (pos0 + n) !min_other in
  for pos = pos0 to clear_upto - 1 do
    t.slots.(pos mod t.cap) <- Srec.placeholder
  done;
  Atomic.set c (pos0 + n);
  let obs = t.obs_r.(i) in
  if Evring.enabled obs then begin
    if clear_upto > pos0 then Evring.emit obs ~kind:Ev.recycle ~arg:(clear_upto - pos0);
    (* occupancy after this advance: the new global minimum cursor is the
       smaller of our new position and the other readers' snapshot *)
    Evring.emit obs ~kind:Ev.enqueue ~arg:(Atomic.get t.head - imin (pos0 + n) !min_other)
  end

let enqueued t = Atomic.get t.head
let processed t i = Atomic.get (cursor t i)
let min_rescans t = t.min_rescans
let peak_occupancy t = t.peak_occ
let rejects t = t.rejects
let backpressure_waits t = t.bp_waits

let drained t =
  let h = Atomic.get t.head in
  Array.for_all (fun c -> Atomic.get c = h) t.cursors
