(* Schedule-exploration stress tests for the three transfer structures of
   the pipeline: the broadcast queue (Ahq), the lock-free work-stealing
   deque (Cldeque) and the all-or-nothing multi-lane router (Lanes).

   Two layers per structure:

   - Randomized seeded interleavings, single-threaded: every operation is
     checked against a reference model step by step, so any deviation from
     FIFO (queue), double-ended LIFO/FIFO (deque) or all-or-nothing commit
     (lanes) semantics is caught at the exact operation that broke it.
     Single-threaded driving makes the expected result exact — this
     explores operation orders, not memory orders.  Each structure gets a
     few deep schedules (4000 ops) plus a 10,000-seed sweep of short
     schedules, so the space of operation orders is covered both long and
     wide.

   - A real-domains smoke test: one producer and concurrent consumers on
     actual domains, asserting the linearizable outcome (per-reader FIFO
     for the queue; exactly-once transfer for the deque; per-lane FIFO of
     whole commits for the router), which exercises the actual
     synchronization under true parallelism. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Srec values to move through the queue: uid is the identity we track. *)
let make_srecs n =
  let _sp, root = Sp_order.create () in
  Array.init n (fun uid -> Srec.make ~uid root)

(* ------------------------------------------------------- Ahq vs model *)

(* Reference model: the queue is broadcast SPMC — a single append-only
   sequence with one cursor per reader.  [try_enqueue] must succeed iff
   the ring has room against the *minimum* cursor. *)
let ahq_interleaving ~seed () =
  let rng = Random.State.make [| seed |] in
  let cap = 8 and n_readers = 2 and steps = 4000 in
  let q = Ahq.create ~capacity:cap ~readers:n_readers () in
  let pool = make_srecs steps in
  let pushed = ref 0 in
  let cursors = Array.make n_readers 0 in
  let model_min () = Array.fold_left min max_int cursors in
  let buf = Array.make 3 pool.(0) in
  for step = 1 to steps do
    match Random.State.int rng 4 with
    | 0 ->
        (* enqueue: exact admission against the min cursor *)
        let s = pool.(!pushed mod steps) in
        let expect_ok = !pushed - model_min () < cap in
        let ok = Ahq.try_enqueue q s in
        check_bool (Printf.sprintf "seed %d step %d: admission" seed step) expect_ok ok;
        if ok then incr pushed
    | 1 ->
        (* peek: the cursor-th element of the pushed sequence, or None *)
        let i = Random.State.int rng n_readers in
        let expect = if cursors.(i) < !pushed then Some (cursors.(i) mod steps) else None in
        let got = Option.map (fun (s : Srec.t) -> s.Srec.uid) (Ahq.peek q i) in
        (match (expect, got) with
        | None, None -> ()
        | Some e, Some g when e = g -> ()
        | _ -> Alcotest.failf "seed %d step %d: reader %d peek diverged from model" seed step i)
    | 2 ->
        (* batched peek through the reusable buffer *)
        let i = Random.State.int rng n_readers in
        let n = Ahq.peek_batch_into q i buf in
        check_int
          (Printf.sprintf "seed %d step %d: batch size" seed step)
          (min (!pushed - cursors.(i)) (Array.length buf))
          n;
        for k = 0 to n - 1 do
          check_int
            (Printf.sprintf "seed %d step %d: batch slot %d" seed step k)
            ((cursors.(i) + k) mod steps)
            buf.(k).Srec.uid
        done
    | _ ->
        (* advance: consume 1..3 pending records *)
        let i = Random.State.int rng n_readers in
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
  (* drain both readers and the queue must agree it is empty *)
  for i = 0 to n_readers - 1 do
    let pending = !pushed - cursors.(i) in
    if pending > 0 then Ahq.advance_n q i pending
  done;
  check_bool "drained" true (Ahq.drained q);
  check_int "everything was enqueued exactly once" !pushed (Ahq.enqueued q)

(* Real domains: one writer, two readers, each reader must observe the
   full sequence in FIFO order — the broadcast queue never drops, dups, or
   reorders for any reader. *)
let ahq_domains () =
  let total = 20_000 in
  let q = Ahq.create ~capacity:64 ~readers:2 () in
  let pool = make_srecs total in
  let reader i () =
    let buf = Array.make 32 pool.(0) in
    let seen = ref 0 in
    let ok = ref true in
    while !seen < total do
      let n = Ahq.peek_batch_into q i buf in
      if n = 0 then Domain.cpu_relax ()
      else begin
        for k = 0 to n - 1 do
          if buf.(k).Srec.uid <> !seen + k then ok := false
        done;
        Ahq.advance_n q i n;
        seen := !seen + n
      end
    done;
    !ok
  in
  let r0 = Domain.spawn (reader 0) in
  let r1 = Domain.spawn (reader 1) in
  for k = 0 to total - 1 do
    while not (Ahq.try_enqueue q pool.(k)) do
      Domain.cpu_relax ()
    done
  done;
  check_bool "reader 0 saw FIFO order" true (Domain.join r0);
  check_bool "reader 1 saw FIFO order" true (Domain.join r1);
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

(* ----------------------------------------------------- Lanes vs model *)

(* Reference model: [shards] independent FIFO sequences plus one cursor
   per lane (one consumer each).  A commit must be all-or-nothing: it
   succeeds — appending exactly one record to EVERY lane — iff every lane
   has room; a reject must leave every lane untouched and bump the reject
   counter of precisely the roomless lanes.  Backpressure stays 0 here:
   single-threaded, waiting can never create room (the detector enforces
   the same default for the same reason). *)

(* The collector's commit: [Lanes.reserve], then one [Lanes.push] per lane;
   [f k] builds lane [k]'s record only once every lane has room. *)
let commit_each t shards f =
  Lanes.reserve t
  && begin
       for k = 0 to shards - 1 do
         Lanes.push t k (f k)
       done;
       true
     end

let lanes_schedule ~seed ~steps =
  let rng = Random.State.make [| seed |] in
  let shards = 1 + Random.State.int rng 4 in
  let cap = 4 in
  let t : int Lanes.t = Lanes.create ~capacity:cap ~shards ~readers_of_lane:(fun _ -> 1) () in
  let streams = Array.make shards [] in
  (* model streams, newest-first *)
  let cursors = Array.make shards 0 in
  let committed = ref 0 in
  let rejects = Array.make shards 0 in
  for step = 1 to steps do
    if Random.State.int rng 2 = 0 then begin
      (* commit: f k must only have been evaluated if the commit lands *)
      let room k = !committed - cursors.(k) < cap in
      let expect_ok = Array.for_all (fun k -> room k) (Array.init shards (fun k -> k)) in
      let evaluated = ref [] in
      let ok =
        commit_each t shards (fun k ->
            evaluated := k :: !evaluated;
            (!committed * shards) + k)
      in
      if ok <> expect_ok then
        Alcotest.failf "seed %d step %d: commit %b, model %b" seed step ok expect_ok;
      if ok then begin
        check_int
          (Printf.sprintf "seed %d step %d: f evaluated once per lane" seed step)
          shards (List.length !evaluated);
        for k = 0 to shards - 1 do
          streams.(k) <- ((!committed * shards) + k) :: streams.(k)
        done;
        incr committed
      end
      else begin
        (* nothing may land on ANY lane, and f must not run at all *)
        check_int (Printf.sprintf "seed %d step %d: reject ran f" seed step) 0
          (List.length !evaluated);
        for k = 0 to shards - 1 do
          if not (room k) then rejects.(k) <- rejects.(k) + 1;
          check_int
            (Printf.sprintf "seed %d step %d: lane %d rejects" seed step k)
            rejects.(k) (Lanes.rejects t k)
        done
      end
    end
    else begin
      (* consume 1..2 records from one lane, checking FIFO content *)
      let k = Random.State.int rng shards in
      let lane = Lanes.lane t k in
      let pending = !committed - cursors.(k) in
      if pending > 0 then begin
        let n = 1 + Random.State.int rng (min pending 2) in
        for j = 0 to n - 1 do
          match Ahq.peek lane 0 with
          | None -> Alcotest.failf "seed %d step %d: lane %d starved" seed step k
          | Some v ->
              let expect = ((cursors.(k) + j) * shards) + k in
              if v <> expect then
                Alcotest.failf "seed %d step %d: lane %d got %d want %d" seed step k v expect;
              Ahq.advance_n lane 0 1
        done;
        cursors.(k) <- cursors.(k) + n
      end
    end
  done;
  (* drain every lane; totals must match the model *)
  for k = 0 to shards - 1 do
    let lane = Lanes.lane t k in
    let pending = !committed - cursors.(k) in
    if pending > 0 then Ahq.advance_n lane 0 pending
  done;
  check_bool "lanes drained" true (Lanes.drained t);
  check_int "total enqueued = shards x commits" (!committed * shards) (Lanes.total_enqueued t);
  check_int "no backpressure waits at rounds=0" 0 (Lanes.backpressure_waits t)

let lanes_interleaving ~seed () = lanes_schedule ~seed ~steps:4000
let lanes_sweep () =
  for seed = 1 to 10_000 do
    lanes_schedule ~seed:(200_000 + seed) ~steps:32
  done

(* Real domains: one producer commits through the backpressure window
   while one consumer domain per lane drains.  Every lane must observe
   every commit, in order — all-or-nothing means the lane streams never
   desynchronize — and with consumers actually running, waiting for room
   works: no commit is ever rejected. *)
let lanes_domains () =
  let total = 20_000 and shards = 2 in
  let t : int Lanes.t = Lanes.create ~capacity:16 ~shards ~readers_of_lane:(fun _ -> 1) () in
  (* far past any real drain latency; a hang here IS the failure mode *)
  Lanes.set_backpressure t ~rounds:1_000_000;
  let consumer k () =
    let lane = Lanes.lane t k in
    let seen = ref 0 in
    let ok = ref true in
    while !seen < total do
      match Ahq.peek lane 0 with
      | None -> Domain.cpu_relax ()
      | Some v ->
          if v <> (!seen * shards) + k then ok := false;
          Ahq.advance_n lane 0 1;
          incr seen
    done;
    !ok
  in
  let doms = List.init shards (fun k -> Domain.spawn (consumer k)) in
  let all_committed = ref true in
  for i = 0 to total - 1 do
    if not (commit_each t shards (fun k -> (i * shards) + k)) then all_committed := false
  done;
  List.iteri
    (fun k d -> check_bool (Printf.sprintf "lane %d consumer saw FIFO commits" k) true (Domain.join d))
    doms;
  check_bool "backpressure absorbed every stall (no rejects)" true !all_committed;
  check_int "no lane rejects" 0 (Lanes.total_rejects t);
  check_bool "lanes drained" true (Lanes.drained t)

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
        @ [ Alcotest.test_case "real domains FIFO" `Quick ahq_domains ] );
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
      ( "lanes",
        List.map
          (fun seed ->
            Alcotest.test_case (Printf.sprintf "interleaving seed %d" seed) `Quick
              (lanes_interleaving ~seed))
          seeds
        @ [
            Alcotest.test_case "10k seeded schedules" `Quick lanes_sweep;
            Alcotest.test_case "real domains all-or-nothing" `Quick lanes_domains;
          ] );
    ]
