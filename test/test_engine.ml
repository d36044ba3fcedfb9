(* Engine-layer tests: the shared Step/Stage/Pipeline/Micropool machinery
   that every executor drives PINT's treap workers through. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The price of a step in the stages below that never read one. *)
let no_cost ~records:_ ~visits:_ = 0

(* A synthetic stage: emits [work] productive steps (visits = 10, records =
   [records_per_step]), interleaving [idles] idle and [stalls] stalled
   steps first, then reports done. *)
let synthetic ~name ?(records_per_step = 1) ~idles ~stalls ~work () =
  let i = ref idles and s = ref stalls and w = ref work in
  Stage.make ~name
    ~cost:(fun ~records ~visits -> (100 * records) + visits)
    (fun () ->
      if !i > 0 then begin
        decr i;
        Step.idle
      end
      else if !s > 0 then begin
        decr s;
        Step.stalled
      end
      else if !w > 0 then begin
        decr w;
        Step.worked ~records:records_per_step 10
      end
      else Step.finished)

let test_step_helpers () =
  let w = Step.worked ~records:4 7 in
  check_bool "worked progressed" true (Step.progressed w);
  check_int "worked visits" 7 (Step.visits w);
  check_int "worked records" 4 (Step.records w);
  check_bool "worked not done" false (Step.is_done w);
  check_bool "idle blocked" true (Step.blocked Step.idle);
  check_bool "stalled blocked" true (Step.blocked Step.stalled);
  check_bool "done is done" true (Step.is_done Step.finished);
  check_int "default records" 1 (Step.records (Step.worked 3))

let drive_one st = Pipeline.drive (Pipeline.of_stages [ st ])

let test_stage_metrics () =
  let st = synthetic ~name:"x" ~records_per_step:8 ~idles:3 ~stalls:2 ~work:5 () in
  drive_one st;
  let m = Stage.metrics st in
  check_int "steps" 5 m.Stage.steps;
  check_int "records" 40 m.Stage.records;
  check_int "visits" 50 m.Stage.visits;
  check_int "idles" 3 m.Stage.idles;
  check_int "stalls" 2 m.Stage.stalls;
  check_int "cost hook" 210 (Stage.cost st ~records:2 ~visits:10);
  Stage.reset_metrics st;
  check_int "reset" 0 (Stage.metrics st).Stage.steps

let test_stage_diagnostics_keys () =
  let st = synthetic ~name:"writer" ~idles:1 ~stalls:1 ~work:2 () in
  drive_one st;
  let d = Stage.diagnostics st in
  List.iter
    (fun k -> check_bool (k ^ " present") true (List.mem_assoc k d))
    [ "stage.writer.steps"; "stage.writer.records"; "stage.writer.visits";
      "stage.writer.idle"; "stage.writer.stalls"; "stage.writer.minor_words" ];
  check_bool "stall counted" true (List.assoc "stage.writer.stalls" d = 1.)

(* [minor_words] is what the steps allocated on the domain that ran them:
   a step that builds 10 000 words of lists reads at least that, and a
   domain allocating alongside is not charged to the stage. *)
let test_stage_minor_words () =
  let st =
    Stage.make ~name:"alloc" ~cost:no_cost (fun () ->
        ignore (Sys.opaque_identity (List.init 3334 Fun.id));
        Step.worked 0)
  in
  ignore (Stage.exec st : Step.t);
  let m = Stage.metrics st in
  check_bool "allocation counted" true (m.Stage.minor_words >= 10_000);
  let quiet = Stage.make ~name:"quiet" ~cost:no_cost (fun () -> Step.idle) in
  let other =
    Domain.spawn (fun () ->
        for _ = 1 to 100 do
          ignore (Sys.opaque_identity (List.init 10_000 Fun.id))
        done)
  in
  for _ = 1 to 1000 do
    ignore (Stage.exec quiet : Step.t)
  done;
  Domain.join other;
  check_int "another domain's allocation is not the stage's" 0
    (Stage.metrics quiet).Stage.minor_words;
  Stage.reset_metrics st;
  check_int "reset" 0 (Stage.metrics st).Stage.minor_words

let test_pipeline_drive_completes () =
  let a = synthetic ~name:"a" ~idles:10 ~stalls:0 ~work:7 () in
  let b = synthetic ~name:"b" ~idles:0 ~stalls:4 ~work:3 () in
  let p = Pipeline.of_stages [ a; b ] in
  Pipeline.drive p;
  check_bool "group finished" true (Pipeline.finished p);
  check_int "a drained" 7 (Stage.metrics a).Stage.steps;
  check_int "b drained" 3 (Stage.metrics b).Stage.steps;
  (* a fresh group over finished stages retires each on its first step *)
  Pipeline.drive (Pipeline.of_stages [ a; b ]);
  check_int "no double work" 7 (Stage.metrics a).Stage.steps

(* A stage that counts how often it is stepped, whatever it reports. *)
let counting ~name calls step =
  Stage.make ~name ~cost:no_cost (fun () ->
      incr calls;
      step ())

let test_pipeline_step () =
  let a = synthetic ~name:"a" ~idles:1 ~stalls:0 ~work:1 () in
  let b = synthetic ~name:"b" ~idles:0 ~stalls:1 ~work:0 () in
  let p = Pipeline.of_stages [ a; b ] in
  check_bool "idle + stalled round: no progress" false (Pipeline.step p);
  check_bool "worked + retired round: progress" true (Pipeline.step p);
  check_bool "a still running" false (Pipeline.finished p);
  check_bool "retiring the last stage is progress" true (Pipeline.step p);
  check_bool "finished" true (Pipeline.finished p);
  (* a finished group steps no stage, whether driven or stepped *)
  let calls = ref 0 in
  let c = counting ~name:"c" calls (fun () -> Step.finished) in
  let q = Pipeline.of_stages [ c ] in
  Pipeline.drive q;
  check_int "one step retires c" 1 !calls;
  Pipeline.drive q;
  check_bool "round on a finished group" false (Pipeline.step q);
  check_int "finished group stepped no stage" 1 !calls;
  (* an empty group is finished from the start *)
  check_bool "empty group finished" true (Pipeline.finished (Pipeline.of_stages []))

let test_pipeline_producer_consumer () =
  (* a queue between two stages: the producer stalls when it is full, the
     consumer drains it — drive must interleave them to completion *)
  let q = Queue.create () in
  let cap = 4 in
  let to_produce = ref 50 in
  let producer =
    Stage.make ~name:"prod" ~cost:no_cost (fun () ->
        if !to_produce = 0 then Step.finished
        else if Queue.length q >= cap then Step.stalled
        else begin
          Queue.push !to_produce q;
          decr to_produce;
          Step.worked 1
        end)
  in
  let eaten = ref 0 in
  let tick = ref 0 in
  let consumer =
    (* half-rate consumer: pops only every other turn, so the queue fills and
       the producer is guaranteed to hit backpressure *)
    Stage.make ~name:"cons" ~cost:no_cost (fun () ->
        incr tick;
        if Queue.is_empty q then if !to_produce = 0 then Step.finished else Step.idle
        else if !tick mod 2 = 1 && !to_produce > 0 then Step.idle
        else begin
          ignore (Queue.pop q);
          incr eaten;
          Step.worked 1
        end)
  in
  Pipeline.drive (Pipeline.of_stages [ producer; consumer ]);
  check_int "all consumed" 50 !eaten;
  check_bool "producer stalled on backpressure" true ((Stage.metrics producer).Stage.stalls > 0)

let test_pipeline_diagnostics () =
  let a = synthetic ~name:"a" ~idles:1 ~stalls:0 ~work:2 () in
  let b = synthetic ~name:"b" ~idles:0 ~stalls:1 ~work:1 () in
  let p = Pipeline.of_stages [ a; b ] in
  Pipeline.drive p;
  let d = Pipeline.diagnostics p in
  check_int "6 counters per stage" 12 (List.length d);
  check_bool "a steps" true (List.assoc "stage.a.steps" d = 2.);
  check_bool "b stalls" true (List.assoc "stage.b.stalls" d = 1.)

(* Placement on a fresh pool: k one-stage groups submitted as one lease to
   k workers land one per worker, each stepped by exactly one domain for
   its whole life — the pinning a pint_serve session relies on. *)
let test_pool_placement k () =
  let pool = Micropool.shared k in
  let seen = Array.init k (fun _ -> ref []) in
  let groups =
    List.init k (fun i ->
        let left = ref 200 in
        [
          Stage.make ~name:(Printf.sprintf "g%d" i) ~cost:no_cost (fun () ->
              seen.(i) := (Domain.self () :> int) :: !(seen.(i));
              if !left = 0 then Step.finished
              else begin
                decr left;
                Step.worked 1
              end);
        ])
  in
  let notified = Atomic.make 0 in
  let lease = Micropool.submit ~notify:(fun () -> Atomic.incr notified) pool groups in
  Micropool.await lease;
  Micropool.shutdown pool;
  let main = (Domain.self () :> int) in
  let homes =
    Array.to_list
      (Array.mapi
         (fun i cell ->
           match List.sort_uniq compare !cell with
           | [ d ] ->
               check_bool (Printf.sprintf "group %d off the caller's domain" i) true (d <> main);
               d
           | ds -> Alcotest.failf "group %d stepped by %d domains" i (List.length ds))
         seen)
  in
  check_int "one domain per group" k (List.length (List.sort_uniq compare homes));
  check_int "notify fired once" 1 (Atomic.get notified)

let test_backoff_terminates () =
  (* relax must be bounded for any round count *)
  List.iter (fun n -> Backoff.relax n) [ 0; 1; 5; 8; 20; 62; 1000 ];
  check_bool "bounded" true true

let () =
  Alcotest.run "pint_engine"
    [
      ( "engine",
        [
          Alcotest.test_case "step helpers" `Quick test_step_helpers;
          Alcotest.test_case "stage metrics" `Quick test_stage_metrics;
          Alcotest.test_case "stage diagnostics keys" `Quick test_stage_diagnostics_keys;
          Alcotest.test_case "stage minor words" `Quick test_stage_minor_words;
          Alcotest.test_case "pipeline drives to done" `Quick test_pipeline_drive_completes;
          Alcotest.test_case "producer/consumer backpressure" `Quick
            test_pipeline_producer_consumer;
          Alcotest.test_case "pipeline step rounds" `Quick test_pipeline_step;
          Alcotest.test_case "pipeline diagnostics" `Quick test_pipeline_diagnostics;
          Alcotest.test_case "pool placement k=2" `Quick (test_pool_placement 2);
          Alcotest.test_case "pool placement k=3" `Quick (test_pool_placement 3);
          Alcotest.test_case "backoff terminates" `Quick test_backoff_terminates;
        ] );
    ]
