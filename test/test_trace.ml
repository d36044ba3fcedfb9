(* Unit tests for the trace FIFO and the access-history queue, including
   cross-domain SPSC behaviour. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_rec uid =
  let _, root = Sp_order.create () in
  Srec.make ~uid root

(* ------------------------------------------------------------- trace *)

let test_trace_fifo () =
  let t = Trace.create ~id:1 ~owner:0 in
  check_int "id" 1 (Trace.id t);
  check_int "owner" 0 (Trace.owner t);
  let recs = List.init 10 mk_rec in
  List.iter (Trace.push t) recs;
  List.iteri
    (fun i expected ->
      (match Trace.peek t with
      | Some got -> check_int (Printf.sprintf "peek %d" i) expected.Srec.uid got.Srec.uid
      | None -> Alcotest.fail "empty too early");
      Trace.pop t)
    recs;
  check_bool "empty" true (Trace.peek t = None)

let test_trace_chunk_boundaries () =
  (* push/pop across several chunk sizes *)
  let t = Trace.create ~id:0 ~owner:0 in
  let n = 1000 in
  for i = 0 to n - 1 do
    Trace.push t (mk_rec i)
  done;
  check_int "pushed" n (Trace.pushed t);
  for i = 0 to n - 1 do
    (match Trace.peek t with
    | Some r -> check_int "order" i r.Srec.uid
    | None -> Alcotest.fail "missing");
    Trace.pop t
  done;
  check_int "popped" n (Trace.popped t)

let test_trace_interleaved () =
  let t = Trace.create ~id:0 ~owner:0 in
  let next = ref 0 in
  let expect = ref 0 in
  for round = 1 to 50 do
    for _ = 1 to round mod 7 do
      Trace.push t (mk_rec !next);
      incr next
    done;
    while Trace.peek t <> None do
      (match Trace.peek t with
      | Some r ->
          check_int "interleaved order" !expect r.Srec.uid;
          incr expect
      | None -> ());
      Trace.pop t
    done
  done;
  check_int "all consumed" !next !expect

let test_trace_close_drained () =
  let t = Trace.create ~id:0 ~owner:0 in
  check_bool "not drained while open" false (Trace.drained t);
  Trace.push t (mk_rec 0);
  Trace.close t;
  check_bool "closed" true (Trace.is_closed t);
  check_bool "not drained with content" false (Trace.drained t);
  Trace.pop t;
  check_bool "drained" true (Trace.drained t)

let test_trace_unlock_latch () =
  let t = Trace.create ~id:0 ~owner:0 in
  check_bool "empty trace locked" false (Trace.unlocked t);
  let r = mk_rec 0 in
  Atomic.set r.Srec.pred 1;
  Trace.push t r;
  check_bool "pred=1 locked" false (Trace.unlocked t);
  Atomic.set r.Srec.pred 0;
  check_bool "pred=0 unlocks" true (Trace.unlocked t);
  (* latch holds even if pred changes again *)
  Atomic.set r.Srec.pred 5;
  check_bool "latched" true (Trace.unlocked t)

let test_trace_pop_empty_fails () =
  let t = Trace.create ~id:0 ~owner:0 in
  Alcotest.check_raises "pop empty" (Failure "Trace.pop: nothing available") (fun () ->
      Trace.pop t)

let test_trace_spsc_domains () =
  (* producer domain pushes 20k records; consumer (this domain) must observe
     them all in order *)
  let t = Trace.create ~id:0 ~owner:0 in
  let n = 20_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Trace.push t (mk_rec i)
        done;
        Trace.close t)
  in
  let seen = ref 0 in
  while not (Trace.drained t) do
    match Trace.peek t with
    | Some r ->
        check_int "spsc order" !seen r.Srec.uid;
        incr seen;
        Trace.pop t
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  check_int "all seen" n !seen

(* --------------------------------------------------------------- ahq *)

(* The next pending record for reader [i], if any, through the one
   consumer entry point; [advance] moves past it. *)
let peek q i =
  let buf = [| mk_rec (-1) |] in
  if Ahq.peek_batch_into q i buf = 0 then None else Some buf.(0)

let advance q i = Ahq.advance_n q i 1
let enqueue q x = Ahq.try_enqueue q ~rounds:0 x

let test_ahq_basic () =
  let q = Ahq.create ~capacity:8 ~readers:2 in
  check_bool "enqueue" true (enqueue q (mk_rec 1));
  check_bool "reader 0 sees it" true ((Option.get (peek q 0)).Srec.uid = 1);
  check_bool "reader 1 sees it" true ((Option.get (peek q 1)).Srec.uid = 1);
  advance q 0;
  check_bool "reader 0 done" true (peek q 0 = None);
  check_bool "reader 1 still pending" true (peek q 1 <> None);
  advance q 1;
  check_bool "drained" true (Ahq.drained q)

let test_ahq_backpressure () =
  let q = Ahq.create ~capacity:4 ~readers:2 in
  for i = 0 to 3 do
    check_bool "fill" true (enqueue q (mk_rec i))
  done;
  check_bool "full" false (enqueue q (mk_rec 99));
  (* one reader advancing is not enough: the slot recycles only when both
     readers have passed *)
  advance q 0;
  check_bool "still full (reader 1 behind)" false (enqueue q (mk_rec 99));
  advance q 1;
  check_bool "slot recycled" true (enqueue q (mk_rec 4));
  check_int "two rejects" 2 (Ahq.rejects q);
  check_int "no waits at rounds 0" 0 (Ahq.backpressure_waits q)

(* Under a single thread nobody frees room while the producer waits: an
   enqueue on a full ring rides out exactly its [rounds] backoff rounds,
   re-probing after each, and is then rejected once. *)
let test_ahq_bounded_wait () =
  let q = Ahq.create ~capacity:2 ~readers:1 in
  check_bool "fill" true (enqueue q (mk_rec 0));
  check_bool "fill" true (enqueue q (mk_rec 1));
  check_bool "still full after the wait" false (Ahq.try_enqueue q ~rounds:3 (mk_rec 99));
  check_int "one round waited per re-probe" 3 (Ahq.backpressure_waits q);
  check_int "one reject" 1 (Ahq.rejects q);
  check_int "a probe per round plus the first" 4 (Ahq.min_rescans q);
  advance q 0;
  check_bool "room without waiting" true (Ahq.try_enqueue q ~rounds:3 (mk_rec 2));
  check_int "no further waits" 3 (Ahq.backpressure_waits q);
  check_int "no further rejects" 1 (Ahq.rejects q)

let test_ahq_fifo_order () =
  let q = Ahq.create ~capacity:16 ~readers:2 in
  let n = 100 in
  let enq = ref 0 and seen = [| 0; 0 |] in
  while seen.(0) < n || seen.(1) < n do
    if !enq < n && enqueue q (mk_rec !enq) then incr enq;
    for i = 0 to 1 do
      match peek q i with
      | Some u ->
          check_int (Printf.sprintf "reader %d order" i) seen.(i) u.Srec.uid;
          advance q i;
          seen.(i) <- seen.(i) + 1
      | None -> ()
    done
  done;
  check_bool "drained" true (Ahq.drained q)

let test_ahq_advance_empty_fails () =
  let q = Ahq.create ~capacity:4 ~readers:2 in
  Alcotest.check_raises "advance empty" (Failure "Ahq.advance_n: nothing pending") (fun () ->
      advance q 0)

let test_ahq_concurrent_readers () =
  (* writer on this domain, two reader domains; both must see every element
     in order *)
  let q = Ahq.create ~capacity:64 ~readers:2 in
  let n = 30_000 in
  let mk_reader i =
    Domain.spawn (fun () ->
        let seen = ref 0 in
        while !seen < n do
          match peek q i with
          | Some u ->
              if u.Srec.uid <> !seen then failwith "out of order";
              incr seen;
              advance q i
          | None -> Domain.cpu_relax ()
        done;
        !seen)
  in
  let d0 = mk_reader 0 and d1 = mk_reader 1 in
  let enq = ref 0 in
  while !enq < n do
    if enqueue q (mk_rec !enq) then incr enq else Domain.cpu_relax ()
  done;
  check_int "reader 0 consumed" n (Domain.join d0);
  check_int "reader 1 consumed" n (Domain.join d1);
  check_bool "drained" true (Ahq.drained q)

let test_ahq_peek_batch_basic () =
  let q = Ahq.create ~capacity:8 ~readers:2 in
  let big = Array.make 32 (mk_rec (-1)) and small = Array.make 2 (mk_rec (-1)) in
  check_int "empty batch" 0 (Ahq.peek_batch_into q 0 big);
  for i = 0 to 4 do
    ignore (enqueue q (mk_rec i))
  done;
  (* buffer larger than available: returns only what is pending *)
  check_int "clamped to available" 5 (Ahq.peek_batch_into q 0 big);
  for k = 0 to 4 do
    check_int "batch order" k big.(k).Srec.uid
  done;
  (* buffer smaller than available: fills it exactly *)
  check_int "clamped to the buffer" 2 (Ahq.peek_batch_into q 0 small);
  Ahq.advance_n q 0 5;
  check_bool "reader 0 drained" true (peek q 0 = None);
  check_int "reader 1 unaffected" 5 (Ahq.peek_batch_into q 1 big)

(* Enough records through a tiny ring that batches straddle the physical
   end of the buffer many times, at the ring shapes of one, two and four
   shards (2, 5 and 11 readers), each reader with its own batch length so
   the cursors drift apart. *)
let test_ahq_batch_wraparound () =
  List.iter
    (fun readers ->
      let q = Ahq.create ~capacity:8 ~readers in
      let n = 100 in
      let bufs = Array.init readers (fun i -> Array.make (1 + (i mod 5)) (mk_rec (-1))) in
      let enq = ref 0 and seen = Array.make readers 0 in
      while Array.exists (fun s -> s < n) seen do
        while !enq < n && enqueue q (mk_rec !enq) do
          incr enq
        done;
        for i = 0 to readers - 1 do
          let k = Ahq.peek_batch_into q i bufs.(i) in
          for j = 0 to k - 1 do
            check_int
              (Printf.sprintf "%d readers: reader %d order" readers i)
              seen.(i) bufs.(i).(j).Srec.uid;
            seen.(i) <- seen.(i) + 1
          done;
          if k > 0 then Ahq.advance_n q i k
        done
      done;
      check_bool (Printf.sprintf "%d readers: drained" readers) true (Ahq.drained q))
    [ 2; 5; 11 ]

let test_ahq_batch_recycling () =
  (* a slot freed by a batch advance is recycled only once BOTH readers have
     passed it *)
  let q = Ahq.create ~capacity:4 ~readers:2 in
  for i = 0 to 3 do
    check_bool "fill" true (enqueue q (mk_rec i))
  done;
  check_bool "full" false (enqueue q (mk_rec 99));
  Ahq.advance_n q 0 3;
  check_bool "still full (reader 1 behind)" false (enqueue q (mk_rec 99));
  Ahq.advance_n q 1 2;
  (* min(3, 2) = 2 slots past both readers *)
  check_bool "slot 0 recycled" true (enqueue q (mk_rec 4));
  check_bool "slot 1 recycled" true (enqueue q (mk_rec 5));
  check_bool "slot 2 not recycled (reader 1 at 2)" false (enqueue q (mk_rec 99));
  Ahq.advance_n q 1 2;
  check_bool "catches up" true (enqueue q (mk_rec 6))

let test_ahq_cached_min () =
  (* The writer only rescans the reader cursors when the cached lower bound
     on the minimum cursor would reject the enqueue. *)
  let q = Ahq.create ~capacity:4 ~readers:2 in
  for i = 0 to 3 do
    check_bool "fill" true (enqueue q (mk_rec i))
  done;
  check_int "filling an empty ring never rescans" 0 (Ahq.min_rescans q);
  check_bool "full" false (enqueue q (mk_rec 99));
  check_int "full ring forces a rescan" 1 (Ahq.min_rescans q);
  advance q 0;
  advance q 1;
  (* progress is invisible until the stale cached bound rejects again *)
  check_bool "admitted after rescan" true (enqueue q (mk_rec 4));
  check_int "rescan found the new minimum" 2 (Ahq.min_rescans q);
  check_bool "full again" false (enqueue q (mk_rec 99));
  check_int "rejection rescans" 3 (Ahq.min_rescans q);
  (* one reader alone does not free a slot: the minimum governs *)
  advance q 0;
  check_bool "still full (reader 1 is the minimum)" false (enqueue q (mk_rec 99));
  check_int "rescanned for the laggard" 4 (Ahq.min_rescans q);
  advance q 1;
  check_bool "admitted once both moved" true (enqueue q (mk_rec 5));
  check_int "final rescan count" 5 (Ahq.min_rescans q)

let test_ahq_peek_batch_into () =
  let q = Ahq.create ~capacity:8 ~readers:2 in
  let buf = Array.make 3 (mk_rec (-1)) in
  check_int "nothing pending" 0 (Ahq.peek_batch_into q 0 buf);
  check_int "buffer untouched" (-1) buf.(0).Srec.uid;
  for i = 0 to 4 do
    ignore (enqueue q (mk_rec i))
  done;
  check_int "clamped to buffer size" 3 (Ahq.peek_batch_into q 0 buf);
  Array.iteri (fun k u -> check_int "batch order" k u.Srec.uid) buf;
  Ahq.advance_n q 0 3;
  check_int "remainder" 2 (Ahq.peek_batch_into q 0 buf);
  check_int "first of remainder" 3 buf.(0).Srec.uid;
  check_int "second of remainder" 4 buf.(1).Srec.uid;
  check_int "stale leftover past the count" 2 buf.(2).Srec.uid;
  check_int "reader 1 unaffected" 3 (Ahq.peek_batch_into q 1 buf);
  Alcotest.check_raises "empty buffer"
    (Invalid_argument "Ahq.peek_batch_into: empty buffer") (fun () ->
      ignore (Ahq.peek_batch_into q 0 [||]))

let test_ahq_peek_batch_into_wraparound () =
  (* two readers at one batch length through a tiny ring *)
  let q = Ahq.create ~capacity:8 ~readers:2 in
  let n = 100 in
  let bufs = [| Array.make 5 (mk_rec (-1)); Array.make 5 (mk_rec (-1)) |] in
  let enq = ref 0 and seen = [| 0; 0 |] in
  while seen.(0) < n || seen.(1) < n do
    while !enq < n && enqueue q (mk_rec !enq) do
      incr enq
    done;
    for i = 0 to 1 do
      let buf = bufs.(i) in
      let k = Ahq.peek_batch_into q i buf in
      for j = 0 to k - 1 do
        check_int "wrap order" seen.(i) buf.(j).Srec.uid;
        seen.(i) <- seen.(i) + 1
      done;
      if k > 0 then Ahq.advance_n q i k
    done
  done;
  check_bool "drained" true (Ahq.drained q)

let test_ahq_advance_n_too_far_fails () =
  let q = Ahq.create ~capacity:8 ~readers:2 in
  ignore (enqueue q (mk_rec 0));
  ignore (enqueue q (mk_rec 1));
  Alcotest.check_raises "advance past pending" (Failure "Ahq.advance_n: nothing pending")
    (fun () -> Ahq.advance_n q 0 3)

let () =
  Alcotest.run "pint_trace"
    [
      ( "trace",
        [
          Alcotest.test_case "fifo" `Quick test_trace_fifo;
          Alcotest.test_case "chunk boundaries" `Quick test_trace_chunk_boundaries;
          Alcotest.test_case "interleaved" `Quick test_trace_interleaved;
          Alcotest.test_case "close/drained" `Quick test_trace_close_drained;
          Alcotest.test_case "unlock latch" `Quick test_trace_unlock_latch;
          Alcotest.test_case "pop empty" `Quick test_trace_pop_empty_fails;
          Alcotest.test_case "spsc across domains" `Quick test_trace_spsc_domains;
        ] );
      ( "ahq",
        [
          Alcotest.test_case "basic" `Quick test_ahq_basic;
          Alcotest.test_case "backpressure" `Quick test_ahq_backpressure;
          Alcotest.test_case "bounded wait" `Quick test_ahq_bounded_wait;
          Alcotest.test_case "fifo order" `Quick test_ahq_fifo_order;
          Alcotest.test_case "advance empty" `Quick test_ahq_advance_empty_fails;
          Alcotest.test_case "concurrent readers" `Quick test_ahq_concurrent_readers;
          Alcotest.test_case "peek_batch basic" `Quick test_ahq_peek_batch_basic;
          Alcotest.test_case "batch wraparound" `Quick test_ahq_batch_wraparound;
          Alcotest.test_case "batch recycling" `Quick test_ahq_batch_recycling;
          Alcotest.test_case "cached min rescans" `Quick test_ahq_cached_min;
          Alcotest.test_case "peek_batch_into" `Quick test_ahq_peek_batch_into;
          Alcotest.test_case "peek_batch_into wraparound" `Quick test_ahq_peek_batch_into_wraparound;
          Alcotest.test_case "advance_n too far" `Quick test_ahq_advance_n_too_far_fails;
        ] );
    ]
