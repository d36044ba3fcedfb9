(* Schedule-exploration stress tests for the two transfer structures of
   the pipeline: the broadcast access-history queue (Ahq) and the
   lock-free work-stealing deque (Cldeque).

   Two layers per structure:

   - Randomized seeded interleavings, single-threaded: every operation is
     checked against a reference model step by step, so any deviation from
     FIFO (queue) or double-ended LIFO/FIFO (deque) semantics is caught at
     the exact operation that broke it.
     Single-threaded driving makes the expected result exact — this
     explores operation orders, not memory orders.  Each structure gets a
     few deep schedules (4000 ops) plus a 10,000-seed sweep of short
     schedules, so the space of operation orders is covered both long and
     wide.

   - Real-domains smoke tests: one producer and concurrent consumers on
     actual domains, asserting the linearizable outcome (per-reader FIFO
     for the queue, also through the producer's bounded wait;
     exactly-once transfer for the deque), which exercises the actual
     synchronization under true parallelism. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Srec values to move through the queue: uid is the identity we track. *)
let make_srecs n =
  let _sp, root = Sp_order.create () in
  Array.init n (fun uid -> Srec.make ~uid root)

(* ------------------------------------------------------- Ahq vs model *)

(* The ring shapes of the sharded access history: 3·shards − 1 readers at
   one, two and four shards. *)
let ring_shapes = [ 2; 5; 11 ]

(* Reference model: the queue is broadcast SPMC — a single append-only
   sequence with one cursor per reader.  An enqueue must succeed iff the
   ring has room against the *minimum* cursor, and each failure is one
   reject (no waiting at rounds = 0: single-threaded, waiting can never
   create room). *)
let ahq_schedule ~seed ~readers ~steps =
  let rng = Random.State.make [| seed |] in
  let cap = 8 in
  let q = Ahq.create ~capacity:cap ~readers in
  let pool = make_srecs steps in
  let pushed = ref 0 and rejects = ref 0 in
  let cursors = Array.make readers 0 in
  let model_min () = Array.fold_left min max_int cursors in
  let one = Array.make 1 pool.(0) and three = Array.make 3 pool.(0) in
  for step = 1 to steps do
    match Random.State.int rng 4 with
    | 0 ->
        (* enqueue: exact admission against the min cursor *)
        let s = pool.(!pushed mod steps) in
        let expect_ok = !pushed - model_min () < cap in
        let ok = Ahq.try_enqueue q ~rounds:0 s in
        check_bool (Printf.sprintf "seed %d step %d: admission" seed step) expect_ok ok;
        if ok then incr pushed else incr rejects;
        check_int (Printf.sprintf "seed %d step %d: rejects" seed step) !rejects (Ahq.rejects q)
    | (1 | 2) as op ->
        (* batched peek through a reusable buffer of one or three slots *)
        let i = Random.State.int rng readers in
        let buf = if op = 1 then one else three in
        let n = Ahq.peek_batch_into q i buf in
        check_int
          (Printf.sprintf "seed %d step %d: reader %d batch size" seed step i)
          (min (!pushed - cursors.(i)) (Array.length buf))
          n;
        for k = 0 to n - 1 do
          check_int
            (Printf.sprintf "seed %d step %d: reader %d batch slot %d" seed step i k)
            ((cursors.(i) + k) mod steps)
            buf.(k).Srec.uid
        done
    | _ ->
        (* advance: consume 1..3 pending records *)
        let i = Random.State.int rng readers in
        let pending = !pushed - cursors.(i) in
        if pending > 0 then begin
          let n = 1 + Random.State.int rng (min pending 3) in
          Ahq.advance_n q i n;
          cursors.(i) <- cursors.(i) + n;
          check_int
            (Printf.sprintf "seed %d step %d: processed" seed step)
            cursors.(i) (Ahq.processed q i)
        end
  done;
  (* drain every reader and the queue must agree it is empty *)
  for i = 0 to readers - 1 do
    let pending = !pushed - cursors.(i) in
    if pending > 0 then Ahq.advance_n q i pending
  done;
  check_bool "drained" true (Ahq.drained q);
  check_int "everything was enqueued exactly once" !pushed (Ahq.enqueued q);
  check_int "no backpressure waits at rounds=0" 0 (Ahq.backpressure_waits q)

let ahq_interleaving ~seed () =
  List.iter (fun readers -> ahq_schedule ~seed ~readers ~steps:4000) ring_shapes

(* The wide axis: 10,000 distinct seeded schedules, short enough to run in
   bulk, across the ring shapes. *)
let ahq_sweep () =
  for seed = 1 to 10_000 do
    ahq_schedule ~seed:(200_000 + seed) ~readers:(List.nth ring_shapes (seed mod 3)) ~steps:48
  done

(* A reader domain: consumes [total] records in batches, checking FIFO
   order, and backs off while nothing is pending so that many readers on
   few cores leave the producer its turn. *)
let reader_domain q total i =
  Domain.spawn (fun () ->
      let buf = Array.make Ahq.default_batch (Srec.make ~uid:(-1) (snd (Sp_order.create ()))) in
      let seen = ref 0 and ok = ref true and idle = ref 0 in
      while !seen < total do
        let n = Ahq.peek_batch_into q i buf in
        if n = 0 then begin
          Backoff.relax !idle;
          incr idle
        end
        else begin
          idle := 0;
          for k = 0 to n - 1 do
            if buf.(k).Srec.uid <> !seen + k then ok := false
          done;
          Ahq.advance_n q i n;
          seen := !seen + n
        end
      done;
      !ok)

(* Real domains: one writer and one domain per reader, at every ring
   shape; each reader must observe the full sequence in FIFO order — the
   broadcast queue never drops, dups, or reorders for any reader. *)
let ahq_domains () =
  List.iter
    (fun readers ->
      let total = 20_000 in
      let q = Ahq.create ~capacity:64 ~readers in
      let pool = make_srecs total in
      let doms = List.init readers (reader_domain q total) in
      for k = 0 to total - 1 do
        let idle = ref 0 in
        while not (Ahq.try_enqueue q ~rounds:0 pool.(k)) do
          Backoff.relax !idle;
          incr idle
        done
      done;
      List.iteri
        (fun i d ->
          check_bool
            (Printf.sprintf "%d readers: reader %d saw FIFO order" readers i)
            true (Domain.join d))
        doms;
      check_bool (Printf.sprintf "%d readers: drained" readers) true (Ahq.drained q))
    ring_shapes

(* Real domains, the bounded wait: the producer enqueues through a 16-slot
   ring with a wait window far past any real drain latency (a hang here IS
   the failure mode) while reader domains drain it.  With the readers
   actually running, waiting for room works: every enqueue lands, in
   order for every reader, and none is rejected. *)
let ahq_bounded_wait_domains () =
  let total = 20_000 and readers = 5 in
  let q = Ahq.create ~capacity:16 ~readers in
  let pool = make_srecs total in
  let doms = List.init readers (reader_domain q total) in
  let landed = ref 0 in
  for k = 0 to total - 1 do
    if Ahq.try_enqueue q ~rounds:1_000_000 pool.(k) then incr landed
  done;
  List.iteri
    (fun i d -> check_bool (Printf.sprintf "reader %d saw FIFO order" i) true (Domain.join d))
    doms;
  check_int "every enqueue landed" total !landed;
  check_int "no rejects" 0 (Ahq.rejects q);
  check_bool "drained" true (Ahq.drained q)

(* --------------------------------------------------- Cldeque vs model *)

(* Reference model: a plain list, head = bottom.  [push_bottom]/[pop_bottom]
   work at the head, [steal_top] at the last element.  Single-threaded
   there is no CAS contention, so a steal must succeed whenever the deque
   is non-empty — a spurious None here would be a logic bug, not a lost
   race. *)
let rec split_last = function
  | [] -> invalid_arg "split_last"
  | [ x ] -> ([], x)
  | x :: tl ->
      let rest, last = split_last tl in
      (x :: rest, last)

(* One schedule of [steps] random ops from [seed].  A tiny initial
   capacity makes the buffer-doubling path part of every deep schedule. *)
let cldeque_schedule ~seed ~steps =
  let rng = Random.State.make [| seed |] in
  let dq : int Cldeque.t = Cldeque.create ~capacity:2 ~dummy:(-1) () in
  let model = ref [] in
  let next = ref 0 in
  for step = 1 to steps do
    match Random.State.int rng 3 with
    | 0 ->
        Cldeque.push_bottom dq !next;
        model := !next :: !model;
        incr next
    | 1 -> (
        let got = Cldeque.pop_bottom dq in
        match (!model, got) with
        | [], None -> ()
        | x :: rest, Some y when x = y -> model := rest
        | _ ->
            Alcotest.failf "seed %d step %d: pop_bottom diverged (got %s)" seed step
              (match got with None -> "None" | Some v -> string_of_int v))
    | _ -> (
        let got = Cldeque.steal_top dq in
        match (!model, got) with
        | [], None -> ()
        | l, Some y ->
            let rest, last = split_last l in
            if last = y then model := rest
            else
              Alcotest.failf "seed %d step %d: steal_top returned %d, model top %d" seed step y
                last
        | _ :: _, None -> Alcotest.failf "seed %d step %d: steal_top missed an element" seed step)
  done;
  (* drain: remaining elements must come out bottom-first, exactly once *)
  let rec drain () =
    match Cldeque.pop_bottom dq with
    | None ->
        if !model <> [] then
          Alcotest.failf "seed %d: deque empty but model still holds %d" seed (List.hd !model)
    | Some y -> (
        match !model with
        | x :: rest when x = y ->
            model := rest;
            drain ()
        | _ -> Alcotest.failf "seed %d: drain diverged at %d" seed y)
  in
  drain ();
  if not (Cldeque.is_empty dq) then Alcotest.failf "seed %d: is_empty after drain" seed;
  if Cldeque.steal_cas_failures dq <> 0 then
    Alcotest.failf "seed %d: lost a CAS with no contention" seed

let cldeque_interleaving ~seed () = cldeque_schedule ~seed ~steps:4000

(* The wide axis: 10,000 distinct seeded schedules, short enough to run in
   bulk.  Combined with the deep runs above this is the "10k+ seeded
   schedules" contract the deque is shipped under. *)
let cldeque_sweep () =
  for seed = 1 to 10_000 do
    cldeque_schedule ~seed:(100_000 + seed) ~steps:48
  done

(* Real domains: the owner pushes and pops at the bottom while two thieves
   steal from the top.  Linearizability here means exactly-once transfer:
   the multiset of popped + stolen + leftover values is exactly the pushed
   set, and each thief's steals arrive oldest-first (monotonically
   increasing values, since the owner pushes 0,1,2,… and never re-pushes). *)
let cldeque_domains () =
  let total = 20_000 in
  let dq : int Cldeque.t = Cldeque.create ~capacity:16 ~dummy:(-1) () in
  let stop = Atomic.make false in
  let thief () =
    let mine = ref [] in
    while not (Atomic.get stop) do
      match Cldeque.steal_top dq with
      | Some v -> mine := v :: !mine
      | None -> Domain.cpu_relax ()
    done;
    (* final sweep so nothing is stranded between stop and join *)
    let rec sweep () =
      match Cldeque.steal_top dq with
      | Some v ->
          mine := v :: !mine;
          sweep ()
      | None -> ()
    in
    sweep ();
    List.rev !mine
  in
  let t0 = Domain.spawn thief and t1 = Domain.spawn thief in
  let popped = ref [] in
  let rng = Random.State.make [| 7 |] in
  for v = 0 to total - 1 do
    Cldeque.push_bottom dq v;
    if Random.State.int rng 3 = 0 then
      match Cldeque.pop_bottom dq with
      | Some x -> popped := x :: !popped
      | None -> ()
  done;
  Atomic.set stop true;
  let s0 = Domain.join t0 and s1 = Domain.join t1 in
  let rec drain acc = match Cldeque.pop_bottom dq with Some v -> drain (v :: acc) | None -> acc in
  let leftovers = drain [] in
  let rec increasing = function a :: (b :: _ as tl) -> a < b && increasing tl | _ -> true in
  check_bool "thief 0 stole oldest-first" true (increasing s0);
  check_bool "thief 1 stole oldest-first" true (increasing s1);
  (* exactly-once: popped + stolen + leftovers is a permutation of 0..n-1.
     A steal whose CAS lost must not have delivered a value, and a value a
     thief took must never reappear at the bottom. *)
  let all = List.sort compare (!popped @ s0 @ s1 @ leftovers) in
  check_int "nothing lost or duplicated" total (List.length all);
  List.iteri (fun i v -> if i <> v then Alcotest.failf "value %d appears at rank %d" v i) all

let seeds = [ 1; 42; 1234; 99991 ]

let () =
  Alcotest.run "pint_sched_stress"
    [
      ( "ahq",
        List.map
          (fun seed ->
            Alcotest.test_case (Printf.sprintf "interleaving seed %d" seed) `Quick
              (ahq_interleaving ~seed))
          seeds
        @ [
            Alcotest.test_case "10k seeded schedules" `Quick ahq_sweep;
            Alcotest.test_case "real domains FIFO" `Quick ahq_domains;
            Alcotest.test_case "real domains bounded wait" `Quick ahq_bounded_wait_domains;
          ] );
      ( "cldeque",
        List.map
          (fun seed ->
            Alcotest.test_case (Printf.sprintf "interleaving seed %d" seed) `Quick
              (cldeque_interleaving ~seed))
          seeds
        @ [
            Alcotest.test_case "10k seeded schedules" `Quick cldeque_sweep;
            Alcotest.test_case "real domains exactly-once" `Quick cldeque_domains;
          ] );
    ]
