(* Virtual-time simulator tests: scheduling correctness, determinism,
   speedup shape, and race detection equivalence with the sequential
   executor under real (simulated) parallel interleavings. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let config ?(n_workers = 4) ?(seed = 7) ?(stages = []) () =
  { Sim_exec.default_config with n_workers; seed; stages }

let null_driver _ctx = Hooks.null_hooks

(* Parallel sum-of-squares: spawn tree over a buffer, then a reduction. *)
let sum_squares_prog n result () =
  let b = Fj.alloc_f n in
  for i = 0 to n - 1 do
    Membuf.set_f b i (float_of_int i)
  done;
  let rec go lo hi =
    if hi - lo <= 8 then
      for i = lo to hi - 1 do
        Membuf.set_f b i (Membuf.peek_f b i *. Membuf.peek_f b i)
      done
    else begin
      let mid = (lo + hi) / 2 in
      Fj.scope (fun () ->
          Fj.spawn (fun () -> go lo mid);
          go mid hi;
          Fj.sync ())
    end
  in
  go 0 n;
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. Membuf.peek_f b i
  done;
  result := !acc

let expected_sum_squares n =
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (float_of_int i ** 4.)
  done;
  !acc

(* NOTE: set_f squares peek*peek where initial value is i, so each cell
   becomes i^2... and we sum those: expected = sum i^2.  Keep the oracle in
   one place to avoid drift. *)
let expected n =
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. float_of_int (i * i)
  done;
  !acc

let test_computes_correctly () =
  let result = ref 0. in
  let _ = Sim_exec.run ~config:(config ()) ~driver:null_driver (sum_squares_prog 256 result) in
  ignore expected_sum_squares;
  Alcotest.(check (float 1e-6)) "sum of squares" (expected 256) !result

let test_single_worker_no_steals () =
  let result = ref 0. in
  let r =
    Sim_exec.run ~config:(config ~n_workers:1 ()) ~driver:null_driver (sum_squares_prog 128 result)
  in
  check_int "no steals" 0 r.Sim_exec.n_steals;
  check_int "no non-trivial syncs" 0 r.Sim_exec.n_nontrivial_syncs;
  Alcotest.(check (float 1e-6)) "result" (expected 128) !result

let test_steals_happen_with_many_workers () =
  let result = ref 0. in
  let r =
    Sim_exec.run ~config:(config ~n_workers:8 ()) ~driver:null_driver (sum_squares_prog 512 result)
  in
  check_bool "steals occurred" true (r.Sim_exec.n_steals > 0);
  check_bool "non-trivial syncs occurred" true (r.Sim_exec.n_nontrivial_syncs > 0);
  Alcotest.(check (float 1e-6)) "result" (expected 512) !result

let test_determinism () =
  let run () =
    let result = ref 0. in
    let r =
      Sim_exec.run ~config:(config ~n_workers:6 ~seed:13 ()) ~driver:null_driver
        (sum_squares_prog 300 result)
    in
    (r.Sim_exec.makespan, r.Sim_exec.n_steals, r.Sim_exec.worker_clocks, !result)
  in
  let a = run () and b = run () in
  check_bool "bit-identical reruns" true (a = b)

let test_seed_changes_schedule () =
  let run seed =
    let result = ref 0. in
    let r =
      Sim_exec.run ~config:(config ~n_workers:6 ~seed ()) ~driver:null_driver
        (sum_squares_prog 300 result)
    in
    (r.Sim_exec.n_steals, r.Sim_exec.makespan)
  in
  (* different seeds usually give different schedules; check at least one of
     several differs to avoid flakiness *)
  let base = run 1 in
  let others = List.map run [ 2; 3; 4; 5 ] in
  check_bool "some schedule differs" true (List.exists (fun o -> o <> base) others)

let test_speedup_shape () =
  let makespan p =
    let result = ref 0. in
    let r =
      Sim_exec.run ~config:(config ~n_workers:p ()) ~driver:null_driver
        (sum_squares_prog 2048 result)
    in
    r.Sim_exec.makespan
  in
  let t1 = makespan 1 and t4 = makespan 4 and t16 = makespan 16 in
  check_bool "4 workers faster" true (float_of_int t4 < 0.5 *. float_of_int t1);
  check_bool "16 workers faster than 4" true (t16 < t4);
  check_bool "work conservation" true (float_of_int t16 > float_of_int t1 /. 32.)

let test_work_conservation () =
  (* total core work should be schedule-independent *)
  let work p seed =
    let result = ref 0. in
    let r =
      Sim_exec.run ~config:(config ~n_workers:p ~seed ()) ~driver:null_driver
        (sum_squares_prog 256 result)
    in
    r.Sim_exec.core_work
  in
  let w1 = work 1 1 in
  check_int "same work p=4" w1 (work 4 9);
  check_int "same work p=8" w1 (work 8 23)

(* ------------------------------------------------- detection under sim *)

let run_sim_detector make_d ?(n_workers = 4) ?(seed = 5) prog =
  let d = make_d () in
  let stages, det =
    match d with `Plain det -> ([], det) | `Pint (p, det) -> (Pint_detector.stages p, det)
  in
  let _ = Sim_exec.run ~config:(config ~n_workers ~seed ~stages ()) ~driver:det.Detector.driver prog in
  Detector.races det

let cracer () = `Plain (Cracer.make ())

let pint () =
  let p = Pint_detector.make () in
  `Pint (p, Pint_detector.detector p)

let test_sim_detects_ww_race () =
  List.iter
    (fun mk ->
      let races =
        run_sim_detector mk (fun () ->
            let b = Fj.alloc_f 8 in
            Fj.spawn (fun () -> Membuf.set_f b 3 1.0);
            Fj.spawn (fun () -> Membuf.set_f b 3 2.0);
            Fj.sync ())
      in
      check_bool "race found" true (races <> []))
    [ cracer; pint ]

let test_sim_race_free_clean () =
  List.iter
    (fun mk ->
      let races =
        run_sim_detector mk (fun () ->
            let b = Fj.alloc_f 64 in
            let rec go lo hi =
              if hi - lo <= 4 then
                for i = lo to hi - 1 do
                  Membuf.set_f b i 1.0
                done
              else begin
                let mid = (lo + hi) / 2 in
                Fj.scope (fun () ->
                    Fj.spawn (fun () -> go lo mid);
                    go mid hi;
                    Fj.sync ())
              end
            in
            go 0 64)
      in
      check_int "no races" 0 (List.length races))
    [ cracer; pint ]

(* Equivalence sweep: on random programs, racy-verdict under the simulator
   (with steals!) must match the sequential oracle verdict, for both
   parallel detectors, across worker counts and seeds. *)
let oracle_verdict actions nbuf =
  let d = Stint.make () in
  let _ =
    Sim_exec.run ~config:Sim_exec.serial ~driver:d.Detector.driver (fun () ->
        let buf = Fj.alloc_f nbuf in
        Test_sim_progs.interpret buf actions ())
  in
  Detector.races d <> []

let test_random_equivalence () =
  let nbuf = 12 in
  for seed = 1 to 40 do
    let rng = Rng.create (seed * 31) in
    let actions = Test_sim_progs.random_program rng nbuf in
    let expected = oracle_verdict actions nbuf in
    List.iter
      (fun (name, mk) ->
        List.iter
          (fun (workers, sseed) ->
            let races =
              run_sim_detector mk ~n_workers:workers ~seed:sseed (fun () ->
                  let buf = Fj.alloc_f nbuf in
                  Test_sim_progs.interpret buf actions ())
            in
            if races <> [] <> expected then
              Alcotest.failf "seed %d %s p=%d: got %b want %b" seed name workers (races <> [])
                expected)
          [ (1, 3); (4, 7); (9, 11) ])
      [ ("cracer", cracer); ("pint", pint) ]
  done

let test_pint_sim_pipeline_stats () =
  let p = Pint_detector.make () in
  let det = Pint_detector.detector p in
  let result = ref 0. in
  let r =
    Sim_exec.run
      ~config:(config ~n_workers:4 ~stages:(Pint_detector.stages p) ())
      ~driver:det.Detector.driver (sum_squares_prog 512 result)
  in
  Alcotest.(check (float 1e-6)) "computation still correct" (expected 512) !result;
  (* every strand flows through the pipeline exactly once per treap worker *)
  let d = det.Detector.diagnostics () in
  let get k = int_of_float (List.assoc k d) in
  check_int "writer processed all strands" r.Sim_exec.n_strands (get "writer_strands");
  check_int "lreader processed all strands" r.Sim_exec.n_strands (get "l_strands");
  check_int "rreader processed all strands" r.Sim_exec.n_strands (get "r_strands");
  check_bool "multiple traces (steals happened)" true (get "traces" > 4);
  check_bool "stage clocks advanced" true
    (List.for_all (fun (_, c) -> c > 0) r.Sim_exec.stage_clocks);
  (* the engine's per-stage counters agree with the detector's own tallies *)
  check_int "writer stage records" (get "writer_strands") (get "stage.writer.records");
  check_int "lreader stage records" (get "l_strands") (get "stage.lreader.records");
  check_bool "achieved batch size reported" true (List.mem_assoc "ahq_batch" d)

let test_stack_frames_under_sim () =
  List.iter
    (fun mk ->
      let races =
        run_sim_detector mk ~n_workers:6 (fun () ->
            (* frames wrap only leaf work (the documented constraint: no
               non-trivial sync inside a frame body); recursion stays outside *)
            let leaf v = Fj.with_frame ~words:16 (fun fr -> Membuf.set_f fr 0 v) in
            let rec go d =
              if d = 0 then leaf 0.5
              else
                Fj.scope (fun () ->
                    Fj.spawn (fun () ->
                        leaf 1.0;
                        go (d - 1));
                    leaf 2.0;
                    Fj.sync ())
            in
            go 6)
      in
      check_int "no false races from stack reuse" 0 (List.length races))
    [ cracer; pint ]

let test_heap_reuse_under_sim () =
  List.iter
    (fun mk ->
      let races =
        run_sim_detector mk ~n_workers:6 (fun () ->
            for _ = 1 to 8 do
              Fj.spawn (fun () ->
                  let x = Fj.alloc_f 32 in
                  Membuf.fill_f x 0 32 1.0;
                  Fj.free_f x)
            done;
            Fj.sync ())
      in
      check_int "no false races from heap reuse" 0 (List.length races))
    [ cracer; pint ]

let () =
  Alcotest.run "pint_sim"
    [
      ( "scheduling",
        [
          Alcotest.test_case "computes correctly" `Quick test_computes_correctly;
          Alcotest.test_case "1 worker, no steals" `Quick test_single_worker_no_steals;
          Alcotest.test_case "steals with 8 workers" `Quick test_steals_happen_with_many_workers;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "seed changes schedule" `Quick test_seed_changes_schedule;
          Alcotest.test_case "speedup shape" `Quick test_speedup_shape;
          Alcotest.test_case "work conservation" `Quick test_work_conservation;
        ] );
      ( "detection",
        [
          Alcotest.test_case "ww race" `Quick test_sim_detects_ww_race;
          Alcotest.test_case "race free" `Quick test_sim_race_free_clean;
          Alcotest.test_case "random equivalence" `Quick test_random_equivalence;
          Alcotest.test_case "pint pipeline stats" `Quick test_pint_sim_pipeline_stats;
          Alcotest.test_case "stack frames" `Quick test_stack_frames_under_sim;
          Alcotest.test_case "heap reuse" `Quick test_heap_reuse_under_sim;
        ] );
    ]
