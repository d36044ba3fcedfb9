(* Replay and differential-detection tests.

   The core property (the paper's Theorem 5 made executable): for any
   captured trace, replaying it through STINT, C-RACER and PINT yields the
   same deduplicated (kind, earlier, later) race set — and for a trace
   captured from a sequential run, that set equals the live run's.  Replay
   is also deterministic, works for traces captured under parallel
   schedules, and correctly reproduces the §III-F heap-reuse hazards from
   the recorded free events. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let detectors = [ "stint"; "cracer"; "pint" ]
let make_det name = Option.get (Systems.make_detector name)

(* Races at Theorem-5 granularity, sorted for set comparison. *)
let signature races =
  List.sort compare
    (List.map (fun (r : Report.race) -> (r.Report.kind, r.Report.prior, r.Report.current)) races)

let live_seq_races det prog =
  let d, _ = make_det det in
  let _ = Sim_exec.run ~config:Sim_exec.serial ~driver:d.Detector.driver prog in
  signature (Detector.races d)

let capture_seq ?(meta = []) prog =
  let d = Nodetect.make () in
  let driver, finished = Tracefile.capturing ~meta d.Detector.driver in
  ignore (Sim_exec.run ~config:Sim_exec.serial ~driver prog);
  finished ()

let replay_races det trace =
  let d, _ = make_det det in
  signature (Replay.run trace d).Replay.races

(* ------------------------------------------------- round-trip per workload *)

(* capture a live sequential run of each racy workload variant, replay the
   trace through every detector, and require the recorded-run race set *)
let roundtrip_workload name ~size ~base =
  let w = Registry.find name in
  let racy = Option.get w.Workload.racy in
  let live = live_seq_races "pint" (racy ~size ~base).Workload.run in
  check_bool (name ^ " racy variant races") true (live <> []);
  let trace = capture_seq ~meta:[ ("workload", name) ] (racy ~size ~base).Workload.run in
  List.iter
    (fun det ->
      check_bool
        (Printf.sprintf "%s: %s replay = live" name det)
        true
        (replay_races det trace = live))
    detectors

let test_roundtrip_heat () = roundtrip_workload "heat" ~size:32 ~base:8
let test_roundtrip_sort () = roundtrip_workload "sort" ~size:64 ~base:16
let test_roundtrip_mmul () = roundtrip_workload "mmul" ~size:16 ~base:4
let test_roundtrip_fft () = roundtrip_workload "fft" ~size:32 ~base:8
let test_roundtrip_chol () = roundtrip_workload "chol" ~size:16 ~base:4

(* a race-free program must stay race-free through capture + replay *)
let test_roundtrip_race_free () =
  let w = Registry.find "heat" in
  let inst = w.Workload.make ~size:32 ~base:8 in
  let trace = capture_seq inst.Workload.run in
  List.iter
    (fun det -> check_bool (det ^ " clean replay") true (replay_races det trace = []))
    detectors

(* ------------------------------------------------------------- determinism *)

let test_replay_deterministic () =
  let w = Registry.find "heat" in
  let racy = Option.get w.Workload.racy in
  let trace = capture_seq (racy ~size:32 ~base:8).Workload.run in
  let run () =
    let d, _ = make_det "pint" in
    let o = Replay.run trace d in
    (signature o.Replay.races, o.Replay.n_strands, o.Replay.diagnostics)
  in
  let r1 = run () and r2 = run () in
  check_bool "identical races, strands and diagnostics" true (r1 = r2)

(* Replay walks a serial capture in the order the serial run executed it
   and numbers its records the same way, so capturing the replay must give
   back the capture entry for entry: uids, links, interval sets, frees,
   clears and ledgers.  Only the metadata is the tee's own. *)
let test_serial_capture_fixed_point () =
  List.iter
    (fun (w : Workload.t) ->
      let variants =
        ("plain", w.Workload.make)
        :: (match w.Workload.racy with Some racy -> [ ("racy", racy) ] | None -> [])
      in
      List.iter
        (fun (variant, make) ->
          let inst = make ~size:w.Workload.default_size ~base:w.Workload.default_base in
          let live = capture_seq inst.Workload.run in
          let recaptured = ref None in
          let wrap inner =
            let driver, finished = Tracefile.capturing inner in
            recaptured := Some finished;
            driver
          in
          ignore (Replay.run ~wrap live (Nodetect.make ()));
          let replayed = (Option.get !recaptured) () in
          check_bool
            (Printf.sprintf "%s %s: replay re-captures the serial capture" w.Workload.name variant)
            true
            (replayed.Tracefile.entries = live.Tracefile.entries))
        variants)
    (Registry.all ())

(* --------------------------------------------- parallel-schedule captures *)

(* Theorem 5 across schedules: a trace captured under a real multi-domain
   run and replayed serially reports the same races through every
   detector, for every workload, plain and racy.  The capture must hold
   one entry per strand, and each spawn's child, which the tee reads off
   the spawn event, must be its own S_child entry.  (heat allocates its
   grids up front, so its heap layout is schedule-independent and its
   races also equal a live sequential run's.) *)
let par_params =
  [
    ("chol", 32, 8);
    ("heat", 32, 8);
    ("mmul", 16, 4);
    ("sort", 64, 16);
    ("stra", 32, 8);
    ("straz", 32, 8);
    ("fft", 32, 8);
  ]

let check_children name (t : Tracefile.t) =
  let starts = Hashtbl.create 256 and children = Hashtbl.create 256 in
  Array.iter (fun (e : Tracefile.entry) -> Hashtbl.replace starts e.uid e.start) t.entries;
  Array.iter
    (fun (e : Tracefile.entry) ->
      match e.finish with
      | Tracefile.Spawn { child; _ } ->
          if Hashtbl.mem children child then
            Alcotest.failf "%s: two spawns name child %d" name child;
          Hashtbl.add children child ();
          if Hashtbl.find_opt starts child <> Some Events.S_child then
            Alcotest.failf "%s: spawn %d's child %d is not an S_child entry" name e.uid child
      | _ -> ())
    t.entries

let test_par_capture_replays_like_seq () =
  List.iter
    (fun (wname, size, base) ->
      let w = Registry.find wname in
      let variants =
        ("plain", w.Workload.make) :: Option.fold ~none:[] ~some:(fun r -> [ ("racy", r) ]) w.racy
      in
      List.iter
        (fun (variant, make) ->
          let name = wname ^ " " ^ variant in
          let driver, finished = Tracefile.capturing (Nodetect.make ()).Detector.driver in
          let config = { Par_exec.default_config with n_workers = 4; seed = 3 } in
          let res = Par_exec.run ~config ~driver (make ~size ~base).Workload.run in
          let trace = finished () in
          check_int (name ^ ": one entry per strand") res.Par_exec.n_strands
            (Tracefile.entry_count trace);
          check_children name trace;
          let pint = replay_races "pint" trace in
          List.iter
            (fun det ->
              check_bool (Printf.sprintf "%s: %s agrees with pint" name det) true
                (replay_races det trace = pint))
            [ "stint"; "cracer" ];
          if wname = "heat" then
            check_bool (name ^ ": par trace = seq live races") true
              (pint = live_seq_races "pint" (make ~size ~base).Workload.run))
        variants)
    par_params

let test_sim_capture_replays_like_seq () =
  let w = Registry.find "sort" in
  let racy = Option.get w.Workload.racy in
  let seq_live = live_seq_races "pint" (racy ~size:64 ~base:16).Workload.run in
  let d = Nodetect.make () in
  let driver, finished = Tracefile.capturing d.Detector.driver in
  let config = { Sim_exec.default_config with n_workers = 8; seed = 5 } in
  ignore (Sim_exec.run ~config ~driver (racy ~size:64 ~base:16).Workload.run);
  let trace = finished () in
  check_bool "sim run stole work" true (Tracefile.boundary_count trace > 0);
  List.iter
    (fun det ->
      check_bool (det ^ ": sim trace = seq live races") true
        (replay_races det trace = seq_live))
    detectors

(* ------------------------------------------------------------ heap reuse *)

(* B allocates/writes/frees; C (parallel) reuses the addresses: the live
   detectors suppress the false race via the free events — replay must feed
   the recorded frees back so the suppression happens offline too. *)
let test_heap_reuse_free_replay () =
  let prog () =
    Fj.spawn (fun () ->
        let x = Fj.alloc_f 32 in
        Membuf.fill_f x 0 32 1.0;
        Fj.free_f x);
    (let y = Fj.alloc_f 32 in
     Membuf.fill_f y 0 32 2.0;
     Fj.free_f y);
    Fj.sync ()
  in
  let trace = capture_seq prog in
  check_bool "frees recorded" true
    (Array.exists (fun e -> e.Tracefile.frees <> []) trace.Tracefile.entries);
  List.iter
    (fun det -> check_bool (det ^ " no false race from reuse") true (replay_races det trace = []))
    detectors

(* ----------------------------------------------------------- differential *)

let test_differential_agreement () =
  let w = Registry.find "heat" in
  let racy = Option.get w.Workload.racy in
  let trace = capture_seq (racy ~size:32 ~base:8).Workload.run in
  List.iter
    (fun (a, b) ->
      let da, _ = make_det a and db, _ = make_det b in
      let d = Replay.differential trace da db in
      check_bool (Printf.sprintf "%s vs %s no divergence" a b) true (Replay.no_divergence d))
    [ ("pint", "stint"); ("pint", "cracer"); ("stint", "cracer") ]

let test_differential_reports_divergence () =
  (* against the no-detection baseline every real race is left-only *)
  let w = Registry.find "heat" in
  let racy = Option.get w.Workload.racy in
  let trace = capture_seq (racy ~size:32 ~base:8).Workload.run in
  let dp, _ = make_det "pint" and dn, _ = make_det "none" in
  let d = Replay.differential trace dp dn in
  check_bool "pint vs none diverges" true (not (Replay.no_divergence d));
  check_bool "divergence is one-sided" true (d.Replay.right_only = []);
  check_bool "pp output non-empty" true
    (String.length (Format.asprintf "%a" Replay.pp_divergence d) > 0)

let test_diff_races_symmetric () =
  let r kind prior current =
    { Report.kind; prior; current; where = Interval.make 0 0 }
  in
  let a = [ r Report.Write_write 1 2; r Report.Write_read 3 4 ] in
  let b = [ r Report.Write_write 1 2; r Report.Read_write 5 6 ] in
  let d = Replay.diff_races a b in
  check_int "left_only" 1 (List.length d.Replay.left_only);
  check_int "right_only" 1 (List.length d.Replay.right_only);
  (* witness intervals are ignored at the comparison granularity *)
  let b' = [ { (r Report.Write_write 1 2) with Report.where = Interval.make 9 9 } ] in
  let d' = Replay.diff_races [ r Report.Write_write 1 2 ] b' in
  check_bool "witness-only difference is agreement" true (Replay.no_divergence d')

(* ---------------------------------------------------------- corrupt DAGs *)

let expect_corrupt name f =
  check_bool name true
    (try
       ignore (f ());
       false
     with Replay.Corrupt _ -> true)

let spawn_one_child () =
  let b = Fj.alloc_f 8 in
  Fj.spawn (fun () -> Membuf.set_f b 0 1.0);
  Fj.sync ()

let without start (t : Tracefile.t) =
  {
    t with
    Tracefile.entries =
      Array.of_list
        (List.filter
           (fun (e : Tracefile.entry) -> e.Tracefile.start <> start)
           (Array.to_list t.Tracefile.entries));
  }

let test_corrupt_links_rejected () =
  let t = capture_seq spawn_one_child in
  let replay t =
    let d, _ = make_det "none" in
    Replay.run t d
  in
  (* dropping a linked entry leaves a dangling uid *)
  expect_corrupt "dangling child link" (fun () -> replay (without Events.S_child t));
  (* no root strand at all *)
  expect_corrupt "missing root" (fun () -> replay (without Events.S_root t));
  (* an unreachable extra entry must fail the coverage check *)
  let orphan = { (Tracefile.root t) with Tracefile.uid = 4_096 } in
  let extra =
    { t with Tracefile.entries = Array.append t.Tracefile.entries [| orphan |] }
  in
  expect_corrupt "unreachable strand" (fun () -> replay extra);
  (* two entries under one uid *)
  let twice =
    { t with Tracefile.entries = Array.append t.Tracefile.entries [| Tracefile.root t |] }
  in
  expect_corrupt "repeated uid" (fun () -> replay twice);
  (* a spawn whose child link points back at the spawning strand *)
  let self_link (e : Tracefile.entry) =
    match e.Tracefile.finish with
    | Tracefile.Spawn { cont; sync; child = _; first } ->
        { e with Tracefile.finish = Tracefile.Spawn { cont; sync; child = e.Tracefile.uid; first } }
    | _ -> e
  in
  expect_corrupt "strand linked twice" (fun () ->
      replay { t with Tracefile.entries = Array.map self_link t.Tracefile.entries })

(* A corrupt trace streamed to a session whose stages run on pool domains
   must, once the session is aborted, end the detector's run, so that the
   lease finishes and the pool joins: were an aborted session to leave its
   stages running, [await] would never return, and a failed replay that
   left its domains running would soon hit the runtime's domain limit.
   The walk fails at end of stream on a dangling link, and between a
   strand's start and finish on a sync that links the wrong block. *)
let test_corrupt_pooled_joins () =
  let t = capture_seq spawn_one_child in
  let mislink (e : Tracefile.entry) =
    match e.Tracefile.finish with
    | Tracefile.Sync { trivial; sync } ->
        { e with Tracefile.finish = Tracefile.Sync { trivial; sync = sync + 1 } }
    | _ -> e
  in
  List.iter
    (fun (name, bad) ->
      let bytes = Tracefile.to_bytes bad in
      for _ = 1 to 128 do
        let d, stages = Option.get (Systems.make_detector ~shards:2 "pint") in
        let s = Replay.Session.create d in
        let groups = Systems.micropools stages in
        let pool = Micropool.shared (List.length groups) in
        let lease = Micropool.submit pool groups in
        expect_corrupt name (fun () ->
            Fun.protect
              ~finally:(fun () -> Replay.Session.abort s)
              (fun () ->
                ignore (Replay.Session.feed s bytes);
                Replay.Session.eof s));
        Micropool.await lease;
        Micropool.shutdown pool
      done)
    [
      ("pooled dangling child link", without Events.S_child t);
      ( "pooled sync linking another block",
        { t with Tracefile.entries = Array.map mislink t.Tracefile.entries } );
    ]

let () =
  Alcotest.run "pint_replay"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "heat" `Quick test_roundtrip_heat;
          Alcotest.test_case "sort" `Quick test_roundtrip_sort;
          Alcotest.test_case "mmul" `Quick test_roundtrip_mmul;
          Alcotest.test_case "fft" `Quick test_roundtrip_fft;
          Alcotest.test_case "chol" `Quick test_roundtrip_chol;
          Alcotest.test_case "race-free stays clean" `Quick test_roundtrip_race_free;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "replay twice, same outcome" `Quick test_replay_deterministic;
          Alcotest.test_case "serial capture is a replay fixed point" `Quick
            test_serial_capture_fixed_point;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "par capture = seq races" `Quick test_par_capture_replays_like_seq;
          Alcotest.test_case "sim capture = seq races" `Quick test_sim_capture_replays_like_seq;
        ] );
      ( "memory-reuse",
        [ Alcotest.test_case "frees replayed" `Quick test_heap_reuse_free_replay ] );
      ( "differential",
        [
          Alcotest.test_case "detectors agree" `Quick test_differential_agreement;
          Alcotest.test_case "baseline diverges" `Quick test_differential_reports_divergence;
          Alcotest.test_case "diff_races semantics" `Quick test_diff_races_symmetric;
        ] );
      ( "corrupt",
        [
          Alcotest.test_case "inconsistent DAGs rejected" `Quick test_corrupt_links_rejected;
          Alcotest.test_case "pooled replay joins its pools" `Quick test_corrupt_pooled_joins;
        ] );
    ]
