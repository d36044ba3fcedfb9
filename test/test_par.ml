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

(* Both executors run one strand protocol, so at one worker, with no
   pools, a real-domain run is the serial elision: its capture must equal
   the simulator's serial capture entry for entry, uids and links
   included. *)
let test_one_worker_is_serial () =
  List.iter
    (fun (w : Workload.t) ->
      let size = w.default_size and base = w.default_base in
      let variants =
        ("plain", w.make) :: Option.fold ~none:[] ~some:(fun r -> [ ("racy", r) ]) w.racy
      in
      List.iter
        (fun (variant, make) ->
          let capture exec =
            let driver, finished = Tracefile.capturing (Nodetect.make ()).Detector.driver in
            exec ~driver (make ~size ~base).Workload.run;
            (finished ()).Tracefile.entries
          in
          let sim =
            capture (fun ~driver p -> ignore (Sim_exec.run ~config:Sim_exec.serial ~driver p))
          in
          let par =
            capture (fun ~driver p ->
                ignore (Par_exec.run ~config:(config ~n_workers:1 ()) ~driver p))
          in
          check_int (w.name ^ " " ^ variant ^ " entries") (Array.length sim) (Array.length par);
          Array.iteri
            (fun i (e : Tracefile.entry) ->
              if e <> par.(i) then
                Alcotest.failf "%s %s: entry %d (uid %d) differs from the serial elision's" w.name
                  variant i e.uid)
            sim)
        variants)
    (Registry.all ())

(* Every run's deques fill vacated slots with one inert continuation, a
   fiber suspended for good; a fiber that is never resumed keeps its
   stack, about 620 B, for the life of the process unless the run frees
   it.  20,000 runs would then leak about 12 MB. *)
let resident_bytes () =
  let ic = open_in "/proc/self/statm" in
  let line = input_line ic in
  close_in ic;
  (* the second field counts resident 4 KiB pages *)
  Scanf.sscanf line "%d %d" (fun _ pages -> pages * 4096)

let test_runs_free_their_fibers () =
  let run () =
    ignore
      (Par_exec.run ~config:(config ~n_workers:1 ()) ~driver:null_driver (fun () ->
           Fj.spawn ignore;
           Fj.sync ()))
  in
  for _ = 1 to 2_000 do
    run ()
  done;
  Gc.full_major ();
  let before = resident_bytes () in
  for _ = 1 to 20_000 do
    run ()
  done;
  Gc.full_major ();
  let grown = resident_bytes () - before in
  check_bool (Printf.sprintf "20,000 runs grew RSS by %d KB" (grown / 1024)) true
    (grown < 4 * 1024 * 1024)

(* A strand that raises on a worker other than the caller: the child
   spins until its continuation has been stolen, and the continuation,
   now on the thief, raises.  Every worker must leave its loop and [run]
   must re-raise; the kept domains must then serve the next run. *)
exception Boom

let test_raise_on_thief () =
  let stolen = Atomic.make false in
  let prog () =
    let deadline = Unix.gettimeofday () +. 10. in
    Fj.spawn (fun () ->
        while (not (Atomic.get stolen)) && Unix.gettimeofday () < deadline do
          Domain.cpu_relax ()
        done;
        if not (Atomic.get stolen) then failwith "continuation never stolen");
    Atomic.set stolen true;
    raise Boom
  in
  (match Par_exec.run ~config:(config ~n_workers:2 ()) ~driver:null_driver prog with
  | _ -> Alcotest.fail "the run returned although a strand raised"
  | exception Boom -> ());
  let out = ref 0. in
  ignore (Par_exec.run ~config:(config ~n_workers:2 ()) ~driver:null_driver (fib_prog 15 out));
  Alcotest.(check (float 0.)) "fib after a raising run" (float_of_int (fib_ref 15)) !out

(* [k] children, each spinning until [k] children have started: every one
   of [k] workers must take one, since a worker stays in its child until
   the last has entered. *)
let every_worker_prog k () =
  let entered = Atomic.make 0 in
  let deadline = Unix.gettimeofday () +. 10. in
  for _ = 1 to k do
    Fj.spawn (fun () ->
        Atomic.incr entered;
        while Atomic.get entered < k && Unix.gettimeofday () < deadline do
          Domain.cpu_relax ()
        done)
  done;
  Fj.sync ()

(* The team keeps its domains between runs, up to one fewer than the
   host's recommended domain count: two runs at one worker count start
   their strands on the same domains. *)
let test_domains_reused () =
  let k = min 3 (Domain.recommended_domain_count ()) in
  let domains () =
    let seen = Array.init k (fun _ -> Atomic.make (-1)) in
    let driver _ctx =
      {
        Hooks.null_hooks with
        on_start = (fun ~wid _ _ -> Atomic.set seen.(wid) (Domain.self () :> int));
      }
    in
    ignore (Par_exec.run ~config:(config ~n_workers:k ()) ~driver (every_worker_prog k));
    List.sort_uniq compare (Array.to_list (Array.map Atomic.get seen))
  in
  let first = domains () in
  let second = domains () in
  check_int "every worker started a strand" k (List.length first);
  Alcotest.(check (list int)) "same domains" first second

(* The domain holding a PINT stage group runs strands whenever its stages
   are idle, so a run with one core worker steals; what it captures is
   detected alike by PINT and C-RACER. *)
let holder_run ~driver p make =
  let inst = make ~size:64 ~base:16 in
  Par_exec.run
    ~config:(config ~n_workers:1 ~pools:(Systems.micropools (Pint_detector.stages p)) ())
    ~driver inst.Workload.run

let test_holder_runs_strands () =
  let w = Registry.find "mmul" in
  let steals = ref 0 in
  for _ = 1 to 3 do
    let p = Pint_detector.make () in
    let d = Pint_detector.detector p in
    let r = holder_run ~driver:d.Detector.driver p w.Workload.make in
    check_int "one core worker and one holder" 2 r.Par_exec.n_domains;
    check_int "race free" 0 (List.length (Detector.races d));
    steals := !steals + r.Par_exec.n_steals
  done;
  check_bool "the holder stole strands" true (!steals > 0)

let test_holder_capture_agrees () =
  let w = Registry.find "mmul" in
  let rec capture tries =
    let p = Pint_detector.make () in
    let d = Pint_detector.detector p in
    let driver, finished = Tracefile.capturing d.Detector.driver in
    let r = holder_run ~driver p (Option.get w.Workload.racy) in
    if r.Par_exec.n_steals = 0 && tries > 1 then capture (tries - 1) else (r, finished ())
  in
  let r, trace = capture 5 in
  check_bool "the capture holds stolen strands" true (r.Par_exec.n_steals > 0);
  let pint = Pint_detector.detector (Pint_detector.make ()) and cracer = Cracer.make () in
  let d = Replay.differential trace pint cracer in
  check_bool "pint and cracer race sets agree" true (Replay.no_divergence d);
  check_bool "races found" true (Detector.races cracer <> [])

let () =
  Alcotest.run "pint_par"
    [
      ( "executor",
        [
          Alcotest.test_case "fib correct" `Quick test_fib_correct;
          Alcotest.test_case "single worker" `Quick test_single_worker;
          Alcotest.test_case "steals happen" `Quick test_steals_on_multiple_domains;
          Alcotest.test_case "one worker is serial" `Quick test_one_worker_is_serial;
          Alcotest.test_case "runs free their fibers" `Quick test_runs_free_their_fibers;
          Alcotest.test_case "raise on a thief" `Quick test_raise_on_thief;
          Alcotest.test_case "domains reused" `Quick test_domains_reused;
        ] );
      ( "detectors",
        [
          Alcotest.test_case "cracer race" `Quick test_cracer_on_domains_race;
          Alcotest.test_case "cracer clean" `Quick test_cracer_on_domains_clean;
          Alcotest.test_case "pint race" `Quick test_pint_on_domains_race;
          Alcotest.test_case "pint clean" `Quick test_pint_on_domains_clean;
          Alcotest.test_case "pint random equivalence" `Quick test_pint_domains_random_equivalence;
          Alcotest.test_case "heap+frames" `Quick test_par_heap_and_frames;
          Alcotest.test_case "holder runs strands" `Quick test_holder_runs_strands;
          Alcotest.test_case "holder capture agrees" `Quick test_holder_capture_agrees;
        ] );
    ]
