(* Real multi-domain executor tests.  The container may have a single
   physical core; domains still interleave preemptively, so these tests
   exercise genuine cross-domain synchronization (deque stealing, suspended
   syncs, SPSC traces, the seqlock in the order-maintenance lists). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let config ?(n_workers = 4) ?(pools = []) () = { Par_exec.default_config with n_workers; pools }

let null_driver _ctx = Hooks.null_hooks

let fib_prog n out () =
  (* exponential spawn tree computing fib into per-call heap cells *)
  let rec fib n (dst : Membuf.f) di =
    if n < 2 then Membuf.set_f dst di (float_of_int n)
    else begin
      let tmp = Fj.alloc_f 2 in
      Fj.scope (fun () ->
          Fj.spawn (fun () -> fib (n - 1) tmp 0);
          fib (n - 2) tmp 1;
          Fj.sync ());
      Membuf.set_f dst di (Membuf.peek_f tmp 0 +. Membuf.peek_f tmp 1);
      Fj.free_f tmp
    end
  in
  let res = Fj.alloc_f 1 in
  fib n res 0;
  out := Membuf.peek_f res 0

let rec fib_ref n = if n < 2 then n else fib_ref (n - 1) + fib_ref (n - 2)

let test_fib_correct () =
  let out = ref 0. in
  let r = Par_exec.run ~config:(config ~n_workers:4 ()) ~driver:null_driver (fib_prog 15 out) in
  Alcotest.(check (float 0.)) "fib value" (float_of_int (fib_ref 15)) !out;
  check_bool "spawns happened" true (r.Par_exec.n_spawns > 100)

let test_single_worker () =
  let out = ref 0. in
  let r = Par_exec.run ~config:(config ~n_workers:1 ()) ~driver:null_driver (fib_prog 12 out) in
  Alcotest.(check (float 0.)) "fib value" (float_of_int (fib_ref 12)) !out;
  check_int "no steals on 1 worker" 0 r.Par_exec.n_steals

let test_steals_on_multiple_domains () =
  (* repeat a few times: steals are nondeterministic but overwhelmingly
     likely on an exponential tree *)
  let total_steals = ref 0 in
  for _ = 1 to 3 do
    let out = ref 0. in
    let r = Par_exec.run ~config:(config ~n_workers:4 ()) ~driver:null_driver (fib_prog 16 out) in
    total_steals := !total_steals + r.Par_exec.n_steals
  done;
  check_bool "steals observed across runs" true (!total_steals > 0)

let test_cracer_on_domains_race () =
  let d = Cracer.make () in
  let _ =
    Par_exec.run ~config:(config ~n_workers:4 ()) ~driver:d.Detector.driver (fun () ->
        let b = Fj.alloc_f 8 in
        Fj.spawn (fun () -> Membuf.set_f b 3 1.0);
        Fj.spawn (fun () -> Membuf.set_f b 3 2.0);
        Fj.sync ())
  in
  check_bool "cracer finds race on domains" true (Detector.races d <> [])

let test_cracer_on_domains_clean () =
  let d = Cracer.make () in
  let out = ref 0. in
  let _ = Par_exec.run ~config:(config ~n_workers:4 ()) ~driver:d.Detector.driver (fib_prog 13 out) in
  Alcotest.(check (float 0.)) "fib value" (float_of_int (fib_ref 13)) !out;
  check_int "race free" 0 (List.length (Detector.races d))

let test_pint_on_domains_race () =
  let p = Pint_detector.make () in
  let d = Pint_detector.detector p in
  let _ =
    Par_exec.run
      ~config:(config ~n_workers:4 ~pools:(Systems.micropools (Pint_detector.stages p)) ())
      ~driver:d.Detector.driver
      (fun () ->
        let b = Fj.alloc_f 8 in
        Fj.spawn (fun () -> Membuf.set_f b 3 1.0);
        Fj.spawn (fun () -> Membuf.set_f b 3 2.0);
        Fj.sync ())
  in
  check_bool "pint finds race on domains" true (Detector.races d <> [])

let test_pint_on_domains_clean () =
  let p = Pint_detector.make () in
  let d = Pint_detector.detector p in
  let out = ref 0. in
  let r =
    Par_exec.run
      ~config:(config ~n_workers:4 ~pools:(Systems.micropools (Pint_detector.stages p)) ())
      ~driver:d.Detector.driver (fib_prog 13 out)
  in
  Alcotest.(check (float 0.)) "fib value" (float_of_int (fib_ref 13)) !out;
  check_int "race free" 0 (List.length (Detector.races d));
  (* every strand fully pipelined across the three real treap-worker domains *)
  let diag = d.Detector.diagnostics () in
  let get k = int_of_float (List.assoc k diag) in
  check_int "writer strands" r.Par_exec.n_strands (get "writer_strands");
  check_int "lreader strands" r.Par_exec.n_strands (get "l_strands");
  check_int "rreader strands" r.Par_exec.n_strands (get "r_strands")

let test_pint_domains_random_equivalence () =
  (* random programs: PINT on real domains agrees with the STINT (serial)
     verdict *)
  let nbuf = 12 in
  for seed = 1 to 12 do
    let rng = Rng.create (seed * 97) in
    let actions = Test_sim_progs.random_program rng nbuf in
    let prog () =
      let buf = Fj.alloc_f nbuf in
      Test_sim_progs.interpret buf actions ()
    in
    let sd = Pint_detector.serial () in
    let _ = Sim_exec.run ~config:Sim_exec.serial ~driver:sd.Detector.driver prog in
    let expected = Detector.races sd <> [] in
    let p = Pint_detector.make () in
    let d = Pint_detector.detector p in
    let _ =
      Par_exec.run
        ~config:(config ~n_workers:3 ~pools:(Systems.micropools (Pint_detector.stages p)) ())
        ~driver:d.Detector.driver prog
    in
    if Detector.races d <> [] <> expected then
      Alcotest.failf "seed %d: pint-on-domains got %b want %b" seed (Detector.races d <> [])
        expected
  done

let test_par_heap_and_frames () =
  List.iter
    (fun n_workers ->
      let p = Pint_detector.make () in
      let d = Pint_detector.detector p in
      let _ =
        Par_exec.run
          ~config:(config ~n_workers ~pools:(Systems.micropools (Pint_detector.stages p)) ())
          ~driver:d.Detector.driver
          (fun () ->
            for _ = 1 to 6 do
              Fj.spawn (fun () ->
                  let x = Fj.alloc_f 16 in
                  Membuf.fill_f x 0 16 1.0;
                  Fj.free_f x;
                  Fj.with_frame ~words:8 (fun fr -> Membuf.set_f fr 0 1.0))
            done;
            Fj.sync ())
      in
      check_int "no false races" 0 (List.length (Detector.races d)))
    [ 1; 4 ]

let () =
  Alcotest.run "pint_par"
    [
      ( "executor",
        [
          Alcotest.test_case "fib correct" `Quick test_fib_correct;
          Alcotest.test_case "single worker" `Quick test_single_worker;
          Alcotest.test_case "steals happen" `Quick test_steals_on_multiple_domains;
        ] );
      ( "detectors",
        [
          Alcotest.test_case "cracer race" `Quick test_cracer_on_domains_race;
          Alcotest.test_case "cracer clean" `Quick test_cracer_on_domains_clean;
          Alcotest.test_case "pint race" `Quick test_pint_on_domains_race;
          Alcotest.test_case "pint clean" `Quick test_pint_on_domains_clean;
          Alcotest.test_case "pint random equivalence" `Quick test_pint_domains_random_equivalence;
          Alcotest.test_case "heap+frames" `Quick test_par_heap_and_frames;
        ] );
    ]
