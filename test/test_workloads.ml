(* Workload tests: each benchmark computes the right answer, is race-free
   under every detector, and its racy variant is caught — across the
   serial simulator, the simulator with steals, and (spot-checked) the real
   multi-domain executor. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* small test sizes so the whole suite stays fast *)
let test_params =
  [
    ("chol", 32, 8);
    ("heat", 32, 4);
    ("mmul", 32, 8);
    ("sort", 2048, 32);
    ("stra", 32, 8);
    ("straz", 32, 8);
    ("fft", 512, 16);
  ]

let params name = List.find (fun (n, _, _) -> n = name) test_params |> fun (_, s, b) -> (s, b)

let all_names = List.map (fun (n, _, _) -> n) test_params

let test_seq_correct name () =
  let w = Registry.find name in
  let size, base = params name in
  let inst = w.Workload.make ~size ~base in
  let d = Nodetect.make () in
  let _ = Sim_exec.run ~config:Sim_exec.serial ~driver:d.Detector.driver inst.Workload.run in
  check_bool (name ^ " result correct") true (inst.Workload.check ())

let test_seq_race_free name () =
  let w = Registry.find name in
  let size, base = params name in
  let inst = w.Workload.make ~size ~base in
  let d = Pint_detector.serial () in
  let _ = Sim_exec.run ~config:Sim_exec.serial ~driver:d.Detector.driver inst.Workload.run in
  check_bool (name ^ " result correct") true (inst.Workload.check ());
  check_int (name ^ " race free under stint") 0 (List.length (Detector.races d))

let test_racy_detected name () =
  let w = Registry.find name in
  let size, base = params name in
  match w.Workload.racy with
  | None -> ()
  | Some racy ->
      let inst = racy ~size ~base in
      let d = Pint_detector.serial () in
      let _ = Sim_exec.run ~config:Sim_exec.serial ~driver:d.Detector.driver inst.Workload.run in
      check_bool (name ^ " racy variant detected by stint") true (Detector.races d <> []);
      (* and by PINT under the simulator with real steals *)
      let inst = racy ~size ~base in
      let p = Pint_detector.make () in
      let det = Pint_detector.detector p in
      let config =
        { Sim_exec.default_config with n_workers = 4; stages = Pint_detector.stages p }
      in
      let _ = Sim_exec.run ~config ~driver:det.Detector.driver inst.Workload.run in
      check_bool (name ^ " racy variant detected by pint/sim") true (Detector.races det <> [])

let test_sim_pint_clean name () =
  let w = Registry.find name in
  let size, base = params name in
  List.iter
    (fun n_workers ->
      let inst = w.Workload.make ~size ~base in
      let p = Pint_detector.make () in
      let det = Pint_detector.detector p in
      let config =
        { Sim_exec.default_config with n_workers; seed = 3; stages = Pint_detector.stages p }
      in
      let r = Sim_exec.run ~config ~driver:det.Detector.driver inst.Workload.run in
      check_bool
        (Printf.sprintf "%s correct under sim p=%d" name n_workers)
        true (inst.Workload.check ());
      check_int (Printf.sprintf "%s race-free under pint p=%d" name n_workers) 0
        (List.length (Detector.races det));
      check_bool (name ^ " strands flowed") true (r.Sim_exec.n_strands > 10))
    [ 1; 8 ]

let test_sim_cracer_clean name () =
  let w = Registry.find name in
  let size, base = params name in
  let inst = w.Workload.make ~size ~base in
  let d = Cracer.make () in
  let config = { Sim_exec.default_config with n_workers = 6; seed = 11 } in
  let _ = Sim_exec.run ~config ~driver:d.Detector.driver inst.Workload.run in
  check_bool (name ^ " correct under sim/cracer") true (inst.Workload.check ());
  check_int (name ^ " race-free under cracer") 0 (List.length (Detector.races d))

(* spot-check two workloads on the real multi-domain executor *)
let test_par_spot name () =
  let w = Registry.find name in
  let size, base = params name in
  let inst = w.Workload.make ~size ~base in
  let p = Pint_detector.make () in
  let det = Pint_detector.detector p in
  let config =
    { Par_exec.default_config with n_workers = 3; pools = Systems.micropools (Pint_detector.stages p) }
  in
  let _ = Par_exec.run ~config ~driver:det.Detector.driver inst.Workload.run in
  check_bool (name ^ " correct under par/pint") true (inst.Workload.check ());
  check_int (name ^ " race-free under par/pint") 0 (List.length (Detector.races det))

let test_interval_shapes () =
  (* straz (Morton) must need far fewer writer-treap intervals than stra
     (row-major) — the layout contrast the paper evaluates *)
  let stat name =
    let w = Registry.find name in
    let inst = w.Workload.make ~size:32 ~base:8 in
    let p = Pint_detector.make () in
    let det = Pint_detector.detector p in
    let _ = Sim_exec.run ~config:Sim_exec.serial ~driver:det.Detector.driver inst.Workload.run in
    det.Detector.drain ();
    Detector.diag det "writer_visits"
  in
  let vs_row = stat "stra" and vs_z = stat "straz" in
  check_bool
    (Printf.sprintf "z-layout needs less treap work (row %.0f vs z %.0f)" vs_row vs_z)
    true (vs_z < vs_row)

let test_fft_many_intervals () =
  (* fft's bit-reversal defeats coalescing: at the default problem sizes its
     words-per-interval ratio must be the worst of the suite *)
  let win name =
    let w = Registry.find name in
    let inst = w.Workload.make ~size:w.Workload.default_size ~base:w.Workload.default_base in
    let d = Pint_detector.serial () in
    let _ = Sim_exec.run ~config:Sim_exec.serial ~driver:d.Detector.driver inst.Workload.run in
    Detector.diag d "work" /. Float.max 1. (Detector.diag d "intervals")
  in
  let fft_w = win "fft" in
  List.iter
    (fun other ->
      let other_w = win other in
      check_bool
        (Printf.sprintf "fft coalesces worse than %s (%.1f vs %.1f words/interval)" other fft_w
           other_w)
        true (fft_w < other_w))
    [ "mmul"; "straz"; "heat"; "sort" ]

let per_workload mk = List.map (fun n -> Alcotest.test_case n `Quick (mk n)) all_names

let () =
  Alcotest.run "pint_workloads"
    [
      ("seq correct", per_workload test_seq_correct);
      ("seq race-free", per_workload test_seq_race_free);
      ("racy detected", per_workload test_racy_detected);
      ("sim pint", per_workload test_sim_pint_clean);
      ("sim cracer", per_workload test_sim_cracer_clean);
      ( "par spot",
        [
          Alcotest.test_case "mmul" `Quick (test_par_spot "mmul");
          Alcotest.test_case "sort" `Quick (test_par_spot "sort");
        ] );
      ( "shape",
        [
          Alcotest.test_case "stra vs straz intervals" `Quick test_interval_shapes;
          Alcotest.test_case "fft interval pressure" `Quick test_fft_many_intervals;
        ] );
    ]
