(* End-to-end race-detection tests on the serial simulator.

   Every scenario is run under STINT, C-RACER and PINT (one-core
   configuration: core first, then drained access history) and, for the
   randomized tests, also compared against a brute-force oracle that records
   every access and checks all conflicting pairs with SP-order reachability.
   All three detectors are exact ("report a race iff one exists"), so their
   racy/race-free verdicts must agree with the oracle everywhere. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type outcome = { name : string; races : Report.race list }

let run_detector make_d prog =
  let d = make_d () in
  let _res = Sim_exec.run ~config:Sim_exec.serial ~driver:d.Detector.driver prog in
  { name = d.Detector.name; races = Detector.races d }

let run_all prog =
  [
    run_detector (fun () -> Pint_detector.serial ()) prog;
    run_detector (fun () -> Cracer.make ()) prog;
    run_detector (fun () -> Pint_detector.detector (Pint_detector.make ())) prog;
  ]

let assert_verdict expected prog =
  List.iter
    (fun o ->
      check_bool (Printf.sprintf "%s verdict" o.name) expected (o.races <> []))
    (run_all prog)

(* ---------------------------------------------------------- basic cases *)

let test_empty_program () = assert_verdict false (fun () -> ())

let test_ww_race () =
  assert_verdict true (fun () ->
      let b = Fj.alloc_f 8 in
      Fj.spawn (fun () -> Membuf.set_f b 3 1.0);
      Fj.spawn (fun () -> Membuf.set_f b 3 2.0);
      Fj.sync ())

let test_disjoint_writes_no_race () =
  assert_verdict false (fun () ->
      let b = Fj.alloc_f 8 in
      Fj.spawn (fun () -> Membuf.set_f b 0 1.0);
      Fj.spawn (fun () -> Membuf.set_f b 4 2.0);
      Fj.sync ())

let test_wr_race () =
  assert_verdict true (fun () ->
      let b = Fj.alloc_f 4 in
      Fj.spawn (fun () -> Membuf.set_f b 1 1.0);
      Fj.spawn (fun () -> ignore (Membuf.get_f b 1));
      Fj.sync ())

let test_rw_race () =
  assert_verdict true (fun () ->
      let b = Fj.alloc_f 4 in
      Fj.spawn (fun () -> ignore (Membuf.get_f b 2));
      Fj.spawn (fun () -> Membuf.set_f b 2 9.0);
      Fj.sync ())

let test_parallel_reads_no_race () =
  assert_verdict false (fun () ->
      let b = Fj.alloc_f 4 in
      Membuf.set_f b 0 5.0;
      Fj.spawn (fun () -> ignore (Membuf.get_f b 0));
      Fj.spawn (fun () -> ignore (Membuf.get_f b 0));
      Fj.sync ())

let test_sync_serializes () =
  assert_verdict false (fun () ->
      let b = Fj.alloc_f 4 in
      Fj.spawn (fun () -> Membuf.set_f b 0 1.0);
      Fj.sync ();
      Fj.spawn (fun () -> Membuf.set_f b 0 2.0);
      Fj.sync ())

let test_race_with_continuation () =
  (* the continuation itself races with the spawned child *)
  assert_verdict true (fun () ->
      let b = Fj.alloc_f 4 in
      Fj.spawn (fun () -> Membuf.set_f b 0 1.0);
      Membuf.set_f b 0 2.0;
      Fj.sync ())

let test_nested_scope_isolation () =
  (* scope gives the inner spawns their own sync: no race with outer *)
  assert_verdict false (fun () ->
      let b = Fj.alloc_f 4 in
      Fj.scope (fun () ->
          Fj.spawn (fun () -> Membuf.set_f b 0 1.0);
          Fj.sync ());
      Membuf.set_f b 0 2.0)

let test_missing_scope_races () =
  (* same code without the scope: the helper's spawn joins the outer block
     which only syncs after the conflicting write *)
  assert_verdict true (fun () ->
      let b = Fj.alloc_f 4 in
      let helper () = Fj.spawn (fun () -> Membuf.set_f b 0 1.0) in
      helper ();
      Membuf.set_f b 0 2.0;
      Fj.sync ())

let test_grandchild_race () =
  assert_verdict true (fun () ->
      let b = Fj.alloc_f 4 in
      Fj.spawn (fun () ->
          Fj.spawn (fun () -> Membuf.set_f b 0 1.0);
          Fj.sync ());
      Membuf.set_f b 0 2.0;
      Fj.sync ())

let test_exact_pair_reported () =
  (* single racing pair: every detector must report exactly one distinct
     race, of write/write kind, between the same two strands *)
  let prog () =
    let b = Fj.alloc_f 4 in
    Fj.spawn (fun () -> Membuf.set_f b 0 1.0);
    Fj.spawn (fun () -> Membuf.set_f b 0 2.0);
    Fj.sync ()
  in
  let outcomes = run_all prog in
  let pairs =
    List.map
      (fun o ->
        check_int (o.name ^ " one distinct race") 1 (List.length o.races);
        let r = List.hd o.races in
        check_bool (o.name ^ " kind ww") true (r.Report.kind = Report.Write_write);
        (r.Report.prior, r.Report.current))
      outcomes
  in
  match pairs with
  | p :: rest -> List.iter (fun q -> check_bool "same strand pair" true (q = p)) rest
  | [] -> Alcotest.fail "no outcomes"

(* ------------------------------------------------------ interval precision *)

let test_partial_overlap_race () =
  (* children write [0,9] and [8,15]: only [8,9] conflicts *)
  assert_verdict true (fun () ->
      let b = Fj.alloc_f 16 in
      Fj.spawn (fun () -> Membuf.fill_f b 0 10 1.0);
      Fj.spawn (fun () -> Membuf.fill_f b 8 8 2.0);
      Fj.sync ())

let test_adjacent_no_race () =
  assert_verdict false (fun () ->
      let b = Fj.alloc_f 16 in
      Fj.spawn (fun () -> Membuf.fill_f b 0 8 1.0);
      Fj.spawn (fun () -> Membuf.fill_f b 8 8 2.0);
      Fj.sync ())

let test_strided_interleaved_no_race () =
  assert_verdict false (fun () ->
      let b = Fj.alloc_f 32 in
      Fj.spawn (fun () ->
          for i = 0 to 15 do
            Membuf.set_f b (2 * i) 1.0
          done);
      Fj.spawn (fun () ->
          for i = 0 to 15 do
            Membuf.set_f b ((2 * i) + 1) 2.0
          done);
      Fj.sync ())

let test_three_readers_one_writer () =
  assert_verdict true (fun () ->
      let b = Fj.alloc_f 4 in
      Membuf.set_f b 0 1.0;
      Fj.spawn (fun () -> ignore (Membuf.get_f b 0));
      Fj.spawn (fun () -> ignore (Membuf.get_f b 0));
      Fj.spawn (fun () -> Membuf.set_f b 0 2.0);
      Fj.sync ())

(* --------------------------------------------------------- §III-F hazards *)

let test_stack_reuse_no_false_race () =
  (* A spawns B (stack locals), then calls C in the continuation; B and C
     share frame addresses on the same worker — logically distinct memory *)
  assert_verdict false (fun () ->
      Fj.spawn (fun () ->
          Fj.with_frame ~words:16 (fun fr ->
              Membuf.set_f fr 0 1.0;
              ignore (Membuf.get_f fr 0)));
      (* continuation: reuses B's popped frame *)
      Fj.with_frame ~words:16 (fun fr ->
          Membuf.set_f fr 0 2.0;
          ignore (Membuf.get_f fr 0));
      Fj.sync ())

let test_stack_reuse_depth () =
  (* deeper nesting with repeated frame reuse across spawn boundaries *)
  assert_verdict false (fun () ->
      for _ = 1 to 5 do
        Fj.spawn (fun () ->
            Fj.with_frame ~words:8 (fun fr ->
                for j = 0 to 7 do
                  Membuf.set_f fr j (float_of_int j)
                done));
        Fj.with_frame ~words:8 (fun fr -> Membuf.set_f fr 3 1.0);
        Fj.sync ()
      done)

let test_real_race_through_frames_still_found () =
  (* shared heap race must still be found amid frame traffic *)
  assert_verdict true (fun () ->
      let b = Fj.alloc_f 4 in
      Fj.spawn (fun () ->
          Fj.with_frame ~words:8 (fun fr ->
              Membuf.set_f fr 0 1.0;
              Membuf.set_f b 0 1.0));
      Fj.with_frame ~words:8 (fun fr ->
          Membuf.set_f fr 0 2.0;
          Membuf.set_f b 0 2.0);
      Fj.sync ())

let test_heap_reuse_no_false_race () =
  (* B allocates, writes, frees; C (parallel with B) allocates — with eager
     reuse C would get B's addresses; must not be reported as a race *)
  assert_verdict false (fun () ->
      Fj.spawn (fun () ->
          let x = Fj.alloc_f 32 in
          Membuf.fill_f x 0 32 1.0;
          Fj.free_f x);
      (let y = Fj.alloc_f 32 in
       Membuf.fill_f y 0 32 2.0;
       Fj.free_f y);
      Fj.sync ())

let test_heap_reuse_serial_chain () =
  assert_verdict false (fun () ->
      for _ = 1 to 10 do
        Fj.spawn (fun () ->
            let x = Fj.alloc_f 16 in
            Membuf.set_f x 5 1.0;
            Fj.free_f x);
        Fj.sync ()
      done)

let test_use_after_free_style_race_found () =
  (* a real race on a live heap block, with frees happening around it *)
  assert_verdict true (fun () ->
      let shared = Fj.alloc_f 8 in
      Fj.spawn (fun () ->
          let x = Fj.alloc_f 8 in
          Membuf.set_f x 0 0.0;
          Fj.free_f x;
          Membuf.set_f shared 3 1.0);
      Membuf.set_f shared 3 2.0;
      Fj.sync ())

(* ------------------------------------------------------------ randomized *)

(* Brute-force oracle: record every (strand, interval, is_write) access and
   decide racy-ness pairwise via SP-order. *)
let oracle_make () =
  let log : (Sp_order.strand * Interval.t * bool) list ref = ref [] in
  let sp_ref = ref None in
  let driver (ctx : Hooks.ctx) =
    sp_ref := Some ctx.sp;
    {
      Hooks.sink =
        (fun ~wid ->
          {
            Access.on_read =
              (fun ~addr ~len ->
                log := ((ctx.current ~wid).Srec.sp, Interval.make addr (addr + len - 1), false) :: !log);
            on_write =
              (fun ~addr ~len ->
                log := ((ctx.current ~wid).Srec.sp, Interval.make addr (addr + len - 1), true) :: !log);
            on_free = (fun ~base ~len -> Aspace.heap_free ctx.aspace ~base ~len);
            on_compute = (fun ~amount:_ -> ());
          });
      on_start = (fun ~wid:_ _ _ -> ());
      on_finish = (fun ~wid:_ _ _ -> ());
      on_done = (fun () -> ());
    }
  in
  let racy () =
    let sp = Option.get !sp_ref in
    let accs = Array.of_list !log in
    let n = Array.length accs in
    let found = ref false in
    (for i = 0 to n - 1 do
       if not !found then
         for j = i + 1 to n - 1 do
           let s1, iv1, w1 = accs.(i) and s2, iv2, w2 = accs.(j) in
           if
             (not !found) && (w1 || w2)
             && Interval.overlaps iv1 iv2
             && Sp_order.parallel sp s1 s2
           then found := true
         done
     done);
    !found
  in
  (driver, racy)

(* Random fork-join programs over a small shared buffer.  NOTE: the oracle
   treats reused stack/heap addresses as the same location, so the generator
   avoids frames and frees; those hazards have dedicated directed tests. *)
let random_program rng nbuf =
  let rec gen depth budget =
    let actions = ref [] in
    let n_actions = 1 + Rng.int rng 4 in
    for _ = 1 to n_actions do
      if !budget > 0 then begin
        decr budget;
        let choice = Rng.int rng 10 in
        if choice < 4 || depth >= 3 then begin
          (* memory access *)
          let addr = Rng.int rng nbuf in
          let len = 1 + Rng.int rng (min 4 (nbuf - addr)) in
          let is_write = Rng.bool rng in
          actions := `Access (addr, len, is_write) :: !actions
        end
        else if choice < 8 then actions := `Spawn (gen (depth + 1) budget) :: !actions
        else actions := `Sync :: !actions
      end
    done;
    List.rev !actions
  in
  gen 0 (ref 24)

let interpret buf actions () =
  let rec go actions =
    List.iter
      (function
        | `Access (addr, len, true) -> Membuf.fill_f buf addr len 1.0
        | `Access (addr, len, false) -> ignore (Membuf.read_range_f buf addr len)
        | `Spawn inner -> Fj.spawn (fun () -> go inner)
        | `Sync -> Fj.sync ())
      actions
  in
  go actions

let run_random_comparison seed =
  let rng = Rng.create seed in
  let nbuf = 12 in
  let actions = random_program rng nbuf in
  let make_prog () =
    fun () ->
      let buf = Fj.alloc_f nbuf in
      interpret buf actions ()
  in
  (* oracle *)
  let odriver, oracle_racy = oracle_make () in
  let _ = Sim_exec.run ~config:Sim_exec.serial ~driver:odriver (make_prog ()) in
  let expected = oracle_racy () in
  List.iter
    (fun o ->
      if (o.races <> []) <> expected then
        Alcotest.failf "seed %d: %s said %b, oracle %b" seed o.name (o.races <> []) expected)
    (run_all (make_prog ()))

let test_random_vs_oracle () =
  for seed = 1 to 60 do
    run_random_comparison seed
  done

let detect_qcheck =
  QCheck.Test.make ~name:"detectors agree with brute-force oracle" ~count:80 QCheck.small_nat
    (fun seed ->
      run_random_comparison (seed + 10_000);
      true)

(* ---------------------------------------------------------- plumbing *)

let test_counts_and_structure () =
  let d = Pint_detector.serial () in
  let res =
    Sim_exec.run ~config:Sim_exec.serial ~driver:d.Detector.driver (fun () ->
        let b = Fj.alloc_f 4 in
        Fj.spawn (fun () -> Membuf.set_f b 0 1.0);
        Fj.spawn (fun () -> Membuf.set_f b 1 1.0);
        Fj.sync ())
  in
  check_int "spawns" 2 res.Sim_exec.n_spawns;
  check_int "serial syncs are trivial" 0 res.Sim_exec.n_nontrivial_syncs;
  check_int "serial runs steal nothing" 0 res.Sim_exec.n_steals;
  (* root, child 1, continuation 1, the block's sync strand, child 2,
     continuation 2 *)
  check_int "strands" 6 res.Sim_exec.n_strands

let test_no_engine_outside_run () =
  Alcotest.check_raises "Fj.spawn outside run"
    (Failure "Fj: no executor is running on this domain") (fun () -> Fj.spawn (fun () -> ()))

(* ------------------------------------------- reader policies, race table *)

(* A program's race listing, witnesses included, under every configuration
   it must not depend on: STINT, C-RACER and PINT at one and two shards,
   each run live on the serial simulator ([pint_run -e seq]) and replayed
   from a capture of the program.  [report_adds], when given, is the
   number of pairs PINT's and STINT's treap roles must send to the
   report. *)
let check_listing ?report_adds prog expected =
  let none, _ = Option.get (Systems.make_detector "none") in
  let driver, finished = Tracefile.capturing none.Detector.driver in
  ignore (Sim_exec.run ~config:Sim_exec.serial ~driver prog);
  let trace = finished () in
  let listing races = List.map (Format.asprintf "%a" Report.pp_race) races in
  List.iter
    (fun (name, shards) ->
      let check mode races diagnostics =
        let label = Printf.sprintf "%s at %d shard(s), %s" name shards mode in
        Alcotest.(check (list string)) label expected (listing races);
        match report_adds with
        | Some n when name <> "cracer" ->
            check_int (label ^ ": report_adds") n
              (int_of_float (List.assoc "report_adds" diagnostics))
        | _ -> ()
      in
      let d, _ = Option.get (Systems.make_detector ~shards name) in
      ignore (Sim_exec.run ~config:Sim_exec.serial ~driver:d.Detector.driver prog);
      let races = Detector.races d in
      check "live" races (d.Detector.diagnostics ());
      let d, _ = Option.get (Systems.make_detector ~shards name) in
      let o = Replay.run trace d in
      check "replayed" o.Replay.races o.Replay.diagnostics)
    [ ("stint", 1); ("cracer", 1); ("pint", 1); ("pint", 2) ]

(* The location the reader-policy programs race on: word 1029 of the heap,
   67,108,864 + 1029, in the second [Shard.shard_block], so at two shards
   shard 1's treaps see every access. *)
let x = 1029

let read_x b = ignore (Membuf.get_f b x)
let write_x b = Membuf.set_f b x 1.0

(* [spawn {read x}; read x; spawn {}; write x]: the child (strand 1) and
   the continuation (2) read x in parallel; the write (5) is in series
   after the continuation and parallel to the child, which only the
   left-most reader keeps. *)
let test_leftmost_reader () =
  check_listing
    (fun () ->
      let b = Fj.alloc_f 2048 in
      Fj.spawn (fun () -> read_x b);
      read_x b;
      Fj.spawn (fun () -> ());
      write_x b;
      Fj.sync ())
    [ "R/W race between strands 1 and 5 at [67109893,67109893]" ]

(* The mirror, [spawn {read x}; spawn {read x}; write x]: the two children
   (strands 1 and 4) read x in parallel and both race the write (5); the
   left-most reader keeps the first, only the right-most the second. *)
let test_rightmost_reader () =
  check_listing
    (fun () ->
      let b = Fj.alloc_f 2048 in
      Fj.spawn (fun () -> read_x b);
      Fj.spawn (fun () -> read_x b);
      write_x b;
      Fj.sync ())
    [
      "R/W race between strands 1 and 5 at [67109893,67109893]";
      "R/W race between strands 4 and 5 at [67109893,67109893]";
    ]

(* [spawn {spawn {read x}; read x; sync; read x}; write x]: the left-most
   reader keeps the grandchild (strand 4) against the parallel read of 5,
   then replaces it with the read after the sync (6), which is in series
   after it.  The two keep decisions meet the same incumbent on
   consecutive strands and differ: a policy that skipped its series check,
   or reused a keep decision across strands, would leave strand 4 in place
   and report it against the write (2), although 6 supersedes it. *)
let test_series_reader_replaces () =
  check_listing
    (fun () ->
      let b = Fj.alloc_f 2048 in
      Fj.spawn (fun () ->
          Fj.spawn (fun () -> read_x b);
          read_x b;
          Fj.sync ();
          read_x b);
      write_x b;
      Fj.sync ())
    [ "R/W race between strands 6 and 2 at [67109893,67109893]" ]

(* Strand 1 writes words 0, 2 and 4 of the heap; after 31 empty spawns
   the continuation, strand 65, writes words 1 and 3.  Ids 1 and 65 share
   a race-table entry ([Race_table.slots] = 64).  Strand 67, in series
   after 65 and parallel to 1, reads words 0-4: its query meets 1, 65, 1,
   65, 1, one racing and one not, and sends the pair once, with the first
   overlap as its witness.  The next strand, 69, reads the same words and
   must send the same prior again. *)
let test_race_table_collisions () =
  check_int "table size the strand ids below assume" 64 Race_table.slots;
  check_listing ~report_adds:2
    (fun () ->
      let b = Fj.alloc_f 8 in
      Fj.spawn (fun () -> List.iter (fun i -> Membuf.set_f b i 1.0) [ 0; 2; 4 ]);
      for _ = 1 to 31 do
        Fj.spawn (fun () -> ())
      done;
      List.iter (fun i -> Membuf.set_f b i 2.0) [ 1; 3 ];
      Fj.spawn (fun () -> ());
      ignore (Membuf.read_range_f b 0 5);
      Fj.spawn (fun () -> ());
      ignore (Membuf.read_range_f b 0 5);
      Fj.sync ())
    [
      "W/R race between strands 1 and 67 at [67108864,67108864]";
      "W/R race between strands 1 and 69 at [67108864,67108864]";
    ]

let () =
  Alcotest.run "pint_detect_seq"
    [
      ( "verdicts",
        [
          Alcotest.test_case "empty program" `Quick test_empty_program;
          Alcotest.test_case "ww race" `Quick test_ww_race;
          Alcotest.test_case "disjoint writes" `Quick test_disjoint_writes_no_race;
          Alcotest.test_case "wr race" `Quick test_wr_race;
          Alcotest.test_case "rw race" `Quick test_rw_race;
          Alcotest.test_case "parallel reads ok" `Quick test_parallel_reads_no_race;
          Alcotest.test_case "sync serializes" `Quick test_sync_serializes;
          Alcotest.test_case "continuation races child" `Quick test_race_with_continuation;
          Alcotest.test_case "scope isolates" `Quick test_nested_scope_isolation;
          Alcotest.test_case "missing scope races" `Quick test_missing_scope_races;
          Alcotest.test_case "grandchild race" `Quick test_grandchild_race;
          Alcotest.test_case "exact pair" `Quick test_exact_pair_reported;
        ] );
      ( "intervals",
        [
          Alcotest.test_case "partial overlap" `Quick test_partial_overlap_race;
          Alcotest.test_case "adjacent ok" `Quick test_adjacent_no_race;
          Alcotest.test_case "strided interleave ok" `Quick test_strided_interleaved_no_race;
          Alcotest.test_case "readers then writer" `Quick test_three_readers_one_writer;
        ] );
      ( "memory-reuse",
        [
          Alcotest.test_case "stack reuse" `Quick test_stack_reuse_no_false_race;
          Alcotest.test_case "stack reuse depth" `Quick test_stack_reuse_depth;
          Alcotest.test_case "race among frames" `Quick test_real_race_through_frames_still_found;
          Alcotest.test_case "heap reuse" `Quick test_heap_reuse_no_false_race;
          Alcotest.test_case "heap serial chain" `Quick test_heap_reuse_serial_chain;
          Alcotest.test_case "race near frees" `Quick test_use_after_free_style_race_found;
        ] );
      ( "random",
        [
          Alcotest.test_case "60 seeds vs oracle" `Quick test_random_vs_oracle;
          QCheck_alcotest.to_alcotest detect_qcheck;
        ] );
      ( "readers",
        [
          Alcotest.test_case "left-most reader" `Quick test_leftmost_reader;
          Alcotest.test_case "right-most reader" `Quick test_rightmost_reader;
          Alcotest.test_case "series reader replaces" `Quick test_series_reader_replaces;
        ] );
      ( "race-table",
        [ Alcotest.test_case "colliding priors, next strand" `Quick test_race_table_collisions ] );
      ( "plumbing",
        [
          Alcotest.test_case "run stats" `Quick test_counts_and_structure;
          Alcotest.test_case "no engine outside run" `Quick test_no_engine_outside_run;
        ] );
    ]
