(* Tests for the §VI extension: the address-sharded access history.

   Correctness: sharding must not change race verdicts (every address is
   owned by exactly one shard, so exactly one {writer, lreader, rreader}
   treap triple sees each access).  Performance: the per-worker treap load
   drops, which is the point of the extension. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_sharded ?(n_workers = 4) ~shards prog =
  let p = Pint_detector.make ~shards () in
  let det = Pint_detector.detector p in
  let config =
    { Sim_exec.default_config with n_workers; seed = 5; stages = Pint_detector.stages p }
  in
  let r = Sim_exec.run ~config ~driver:det.Detector.driver prog in
  (det, r)

(* [Shard.iter_subranges] with an interval callback, for the checks below *)
let iter_subs ?block ~shards ~shard (iv : Interval.t) f =
  Shard.iter_subranges ?block ~shards ~shard iv.lo iv.hi () (fun () lo hi -> f (Interval.make lo hi))

let test_shard_subranges () =
  (* the shard decomposition partitions any interval exactly *)
  let block = Shard.shard_block in
  List.iter
    (fun (lo, hi, shards) ->
      let iv = Interval.make lo hi in
      let seen = Hashtbl.create 64 in
      for shard = 0 to shards - 1 do
        iter_subs ~shards ~shard iv (fun sub ->
            check_bool "within" true (sub.Interval.lo >= lo && sub.Interval.hi <= hi);
            check_int "single block" (sub.Interval.lo / block) (sub.Interval.hi / block);
            check_int "right shard" shard (sub.Interval.lo / block mod shards);
            for a = sub.Interval.lo to sub.Interval.hi do
              if Hashtbl.mem seen a then Alcotest.failf "address %d covered twice" a;
              Hashtbl.add seen a ()
            done)
      done;
      check_int "exact cover" (Interval.width iv) (Hashtbl.length seen))
    [
      (0, 100, 2);
      (4000, 4200, 2);
      (0, 20000, 3);
      (12287, 12289, 4);
      (8192, 8192, 2);
      (0, 50000, 5);
    ]

let subranges ~shards ~shard iv =
  let acc = ref [] in
  iter_subs ~shards ~shard iv (fun sub ->
      acc := (sub.Interval.lo, sub.Interval.hi) :: !acc);
  List.rev !acc

let check_ranges = Alcotest.(check (list (pair int int)))

let test_shard_subranges_straddle () =
  let block = Shard.shard_block in
  (* two blocks: the split lands exactly on the block boundary *)
  let iv = Interval.make (block - 6) (block + 4) in
  check_ranges "straddle shard0" [ (block - 6, block - 1) ] (subranges ~shards:2 ~shard:0 iv);
  check_ranges "straddle shard1" [ (block, block + 4) ] (subranges ~shards:2 ~shard:1 iv);
  (* three blocks, two shards: the outer blocks are both ≡ 0 (mod 2), so
     shard 0 owns two disjoint subranges of the same interval *)
  let iv3 = Interval.make (block - 1) (2 * block) in
  check_ranges "straddle3 shard0"
    [ (block - 1, block - 1); (2 * block, 2 * block) ]
    (subranges ~shards:2 ~shard:0 iv3);
  check_ranges "straddle3 shard1" [ (block, (2 * block) - 1) ] (subranges ~shards:2 ~shard:1 iv3)

let test_shard_subranges_single_word () =
  let block = Shard.shard_block in
  List.iter
    (fun addr ->
      let iv = Interval.make addr addr in
      let owner = addr / block mod 3 in
      for shard = 0 to 2 do
        let want = if shard = owner then [ (addr, addr) ] else [] in
        check_ranges (Printf.sprintf "word %d shard %d" addr shard) want
          (subranges ~shards:3 ~shard iv)
      done)
    [ 0; block - 1; block; (2 * block) + 17 ]

let test_shard_subranges_more_shards_than_blocks () =
  let block = Shard.shard_block in
  (* a 2-block interval under 5 shards: shards 2..4 own nothing *)
  let iv = Interval.make 10 (block + 10) in
  check_ranges "shard0" [ (10, block - 1) ] (subranges ~shards:5 ~shard:0 iv);
  check_ranges "shard1" [ (block, block + 10) ] (subranges ~shards:5 ~shard:1 iv);
  for shard = 2 to 4 do
    check_ranges (Printf.sprintf "shard%d empty" shard) [] (subranges ~shards:5 ~shard iv)
  done;
  (* shards = 1 never splits, whatever the interval *)
  let wide = Interval.make 0 (10 * block) in
  check_ranges "unsharded passthrough" [ (0, 10 * block) ] (subranges ~shards:1 ~shard:0 wide)

(* Property: for random intervals, shard counts and block alignments, the
   per-shard outputs of the splitter reconstruct the input exactly and
   disjointly, and every subrange lands on the shard that owns its
   addresses.  Exact disjoint coverage is equivalent to: sorted by [lo],
   the subranges start at [iv.lo], chain with no gap or overlap, and end
   at [iv.hi]. *)
let splitter_partition_prop =
  let gen =
    QCheck.Gen.(
      int_range 1 9 >>= fun shards ->
      int_range 4 13 >>= fun block_exp ->
      int_range 0 100_000 >>= fun lo ->
      int_range 0 40_000 >>= fun w -> return (shards, 1 lsl block_exp, lo, lo + w))
  in
  let print (shards, block, lo, hi) =
    Printf.sprintf "shards=%d block=%d [%d,%d]" shards block lo hi
  in
  QCheck.Test.make ~name:"splitter partitions exactly onto owning shards" ~count:500
    (QCheck.make ~print gen) (fun (shards, block, lo, hi) ->
      let iv = Interval.make lo hi in
      let subs = ref [] in
      for shard = 0 to shards - 1 do
        iter_subs ~block ~shards ~shard iv (fun sub ->
            if Shard.owner ~block ~shards sub.Interval.lo <> shard then
              QCheck.Test.fail_reportf "lo %d not owned by shard %d" sub.Interval.lo shard;
            if Shard.owner ~block ~shards sub.Interval.hi <> shard then
              QCheck.Test.fail_reportf "hi %d not owned by shard %d" sub.Interval.hi shard;
            (* a subrange never crosses a block boundary once there is more
               than one shard to cross into *)
            if shards > 1 && sub.Interval.lo / block <> sub.Interval.hi / block then
              QCheck.Test.fail_reportf "subrange [%d,%d] spans blocks" sub.Interval.lo
                sub.Interval.hi;
            subs := (sub.Interval.lo, sub.Interval.hi) :: !subs)
      done;
      let sorted = List.sort compare !subs in
      let rec chain expect = function
        | [] -> expect = hi + 1
        | (l, h) :: rest ->
            if l <> expect then
              QCheck.Test.fail_reportf "gap or overlap: expected lo %d, got [%d,%d]" expect l h;
            if h < l || h > hi then QCheck.Test.fail_reportf "bad subrange [%d,%d]" l h;
            chain (h + 1) rest
      in
      chain lo sorted)

let test_shards_param () =
  (* one spelling: ?shards (the readers-only-era ?reader_shards alias is
     gone — keeping this test pinned on the survivor) *)
  let p = Pint_detector.make ~shards:3 () in
  check_int "shards sets shard count" 3 (Pint_detector.shards p);
  let d = Pint_detector.make () in
  check_int "default is the paper topology" 1 (Pint_detector.shards d)

let racy_prog () =
  let b = Fj.alloc_f 8 in
  Fj.spawn (fun () -> Membuf.set_f b 3 1.0);
  Fj.spawn (fun () -> Membuf.set_f b 3 2.0);
  Fj.sync ()

let test_sharded_detects_race () =
  List.iter
    (fun shards ->
      let det, _ = run_sharded ~shards racy_prog in
      check_bool
        (Printf.sprintf "race found with %d shards" shards)
        true
        (Detector.races det <> []))
    [ 1; 2; 4 ]

let test_sharded_random_equivalence () =
  let nbuf = 12 in
  for seed = 1 to 20 do
    let rng = Rng.create (seed * 53) in
    let actions = Test_sim_progs.random_program rng nbuf in
    let prog () =
      let buf = Fj.alloc_f nbuf in
      Test_sim_progs.interpret buf actions ()
    in
    let sd = Pint_detector.serial () in
    let _ = Sim_exec.run ~config:Sim_exec.serial ~driver:sd.Detector.driver prog in
    let expected = Detector.races sd <> [] in
    List.iter
      (fun shards ->
        let det, _ = run_sharded ~shards prog in
        if Detector.races det <> [] <> expected then
          Alcotest.failf "seed %d shards %d: got %b want %b" seed shards
            (Detector.races det <> []) expected)
      [ 2; 3 ]
  done

let test_sharded_workloads_clean () =
  List.iter
    (fun (name, size, base) ->
      let w = Registry.find name in
      let inst = w.Workload.make ~size ~base in
      let det, r = run_sharded ~n_workers:6 ~shards:3 inst.Workload.run in
      check_bool (name ^ " correct") true (inst.Workload.check ());
      check_int (name ^ " race free") 0 (List.length (Detector.races det));
      (* every strand flows through every shard worker *)
      let d = det.Detector.diagnostics () in
      let get k = List.assoc k d in
      check_bool (name ^ " l shards processed all") true
        (int_of_float (get "l_strands") = r.Sim_exec.n_strands);
      check_bool (name ^ " r shards processed all") true
        (int_of_float (get "r_strands") = r.Sim_exec.n_strands))
    [ ("mmul", 32, 8); ("sort", 2048, 32); ("heat", 32, 4) ]

let test_sharding_reduces_reader_bottleneck () =
  (* the extension's point: on a treap-bound configuration, the max reader
     clock drops substantially when the readers are sharded.  mmul's buffers
     span many shard blocks, so the split is effective.  mmul 128 with base
     16 keeps the one-shard run treap-bound (the default 256/64 run is
     core-bound: its re-covered intervals are cheap in-place updates), and
     the first check holds that premise, so a run the cores bound fails
     here instead of passing vacuously. *)
  let w = Registry.find "mmul" in
  let run shards =
    Systems.run ~shards ~workload:w ~size:128 ~base:16 ~workers:17 Systems.Pint_sys
  in
  let m1 = run 1 and m4 = run 4 in
  let t1 = m1.Systems.time and t4 = m4.Systems.time in
  check_bool
    (Printf.sprintf "one shard is treap-bound (%.2f vsec, cores %.2f)" (Systems.vsec t1)
       (Systems.vsec m1.Systems.core_time))
    true
    (t1 >= 2. *. m1.Systems.core_time);
  check_bool (Printf.sprintf "sharded faster (%.2f -> %.2f vsec)" (Systems.vsec t1) (Systems.vsec t4))
    true
    (t4 < 0.6 *. t1)

let test_detection_span_monotonic () =
  (* acceptance anchor: on the fig1 configuration (heat48, 4 core workers,
     paper cost model) the treap-side critical path — the max per-stage
     virtual-cycle cost, "detect_span" in diagnostics — must fall strictly
     as the access history is split across more shards *)
  let w = Registry.find "heat" in
  let span shards =
    let m = Systems.run ~shards ~workload:w ~size:48 ~base:8 ~workers:4 Systems.Pint_sys in
    List.assoc "detect_span" m.Systems.diags
  in
  let s1 = span 1 and s2 = span 2 and s4 = span 4 in
  check_bool (Printf.sprintf "span falls 1->2 shards (%.0f -> %.0f)" s1 s2) true (s2 < s1);
  check_bool (Printf.sprintf "span falls 2->4 shards (%.0f -> %.0f)" s2 s4) true (s4 < s2)

(* heat48's serial capture, the stream the replay:heat48 bench groups use *)
let heat48_capture () =
  let w = Registry.find "heat" in
  let inst = w.Workload.make ~size:48 ~base:8 in
  let d0, _ = Option.get (Systems.make_detector "none") in
  let driver, finished = Tracefile.capturing d0.Detector.driver in
  ignore (Sim_exec.run ~config:Sim_exec.serial ~driver inst.Workload.run);
  finished ()

let test_detection_span_monotonic_replay () =
  (* same property on the replay path (bench group replay:heat48:shards):
     one recorded strand stream, pure access-history work *)
  let t = heat48_capture () in
  let span shards =
    let d, _ = Option.get (Systems.make_detector ~shards "pint") in
    List.assoc "detect_span" (Replay.run t d).Replay.diagnostics
  in
  let s1 = span 1 and s2 = span 2 and s4 = span 4 in
  check_bool (Printf.sprintf "replay span falls 1->2 (%.0f -> %.0f)" s1 s2) true (s2 < s1);
  check_bool (Printf.sprintf "replay span falls 2->4 (%.0f -> %.0f)" s2 s4) true (s4 < s2)

let test_detection_span_one_unit () =
  (* one price list: a replay of the serial capture through the figures'
     treap seed hands each stage the records a one-worker simulation does,
     in the same order, and prices them the same way, so it reports the
     figures' detect_span at every shard count *)
  let w = Registry.find "heat" in
  let t = heat48_capture () in
  List.iter
    (fun shards ->
      let m = Systems.run ~shards ~workload:w ~size:48 ~base:8 ~workers:1 Systems.Pint_sys in
      let d, _ = Option.get (Systems.make_detector ~seed:2029 ~shards "pint") in
      Alcotest.(check (float 0.))
        (Printf.sprintf "replay detect_span = figure detect_span at %d shard(s)" shards)
        (List.assoc "detect_span" m.Systems.diags)
        (List.assoc "detect_span" (Replay.run t d).Replay.diagnostics))
    [ 1; 2; 4 ]

let test_sim_one_unit () =
  (* pint_run -e sim's configuration (the detector's strand price, its
     stages) runs the figures' schedule: same makespan, same steals *)
  let w = Registry.find "heat" in
  let inst = w.Workload.make ~size:48 ~base:8 in
  let d, stages = Option.get (Systems.make_detector "pint") in
  let config =
    {
      Sim_exec.n_workers = 4;
      seed = 2022;
      strand_cost = Systems.strand_cost "pint";
      stages;
      obs_clock = Obs.clock Obs.disabled;
    }
  in
  let r = Sim_exec.run ~config ~driver:d.Detector.driver inst.Workload.run in
  let m = Systems.run ~workload:w ~size:48 ~base:8 ~workers:4 Systems.Pint_sys in
  check_int "makespan = figure core time" (int_of_float m.Systems.core_time) r.Sim_exec.makespan;
  check_int "steals = figure steals" m.Systems.n_steals r.Sim_exec.n_steals

let test_sharded_heap_and_frames () =
  let det, _ =
    run_sharded ~n_workers:4 ~shards:2 (fun () ->
        for _ = 1 to 6 do
          Fj.spawn (fun () ->
              let x = Fj.alloc_f 16 in
              Membuf.fill_f x 0 16 1.0;
              Fj.free_f x;
              Fj.with_frame ~words:8 (fun fr -> Membuf.set_f fr 0 1.0))
        done;
        Fj.sync ())
  in
  check_int "no false races" 0 (List.length (Detector.races det))

let () =
  Alcotest.run "pint_sharded"
    [
      ( "sharding",
        [
          Alcotest.test_case "subrange partition" `Quick test_shard_subranges;
          Alcotest.test_case "subrange straddle" `Quick test_shard_subranges_straddle;
          Alcotest.test_case "subrange single word" `Quick test_shard_subranges_single_word;
          Alcotest.test_case "subrange shards>blocks" `Quick
            test_shard_subranges_more_shards_than_blocks;
          QCheck_alcotest.to_alcotest splitter_partition_prop;
          Alcotest.test_case "shards parameter" `Quick test_shards_param;
          Alcotest.test_case "detects race" `Quick test_sharded_detects_race;
          Alcotest.test_case "random equivalence" `Quick test_sharded_random_equivalence;
          Alcotest.test_case "workloads clean" `Quick test_sharded_workloads_clean;
          Alcotest.test_case "reduces bottleneck" `Quick test_sharding_reduces_reader_bottleneck;
          Alcotest.test_case "detection span monotone" `Quick test_detection_span_monotonic;
          Alcotest.test_case "detection span monotone (replay)" `Quick
            test_detection_span_monotonic_replay;
          Alcotest.test_case "detection span: replay = figures" `Quick
            test_detection_span_one_unit;
          Alcotest.test_case "sim run = figure run" `Quick test_sim_one_unit;
          Alcotest.test_case "heap+frames" `Quick test_sharded_heap_and_frames;
        ] );
    ]
