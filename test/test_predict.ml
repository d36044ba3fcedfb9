(* Predictive detection: the window-bounded reordering analysis must agree
   finding-for-finding with the brute-force reordering oracle — on every
   committed golden trace, on random fork-join programs and, for the
   adjacency core alone, on random and hand-built DAGs — be monotone in
   the window, disjoint from the observed race set, and re-run only O(w)
   EDF slots per pin.  The lucky trace (test/golden_gen/lucky.ml) is additionally
   byte-pinned: its racy pair is invisible to every observed-order detector
   and only reachable through prediction, so a silent regeneration drift
   would quietly gut the corpus' predict coverage. *)

let check_bool = Alcotest.(check bool)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let golden_files () =
  let dir = "golden" in
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".trace")
    |> List.sort compare
    |> List.map (Filename.concat dir)

(* One offline pass: observed races (pint) and the strand DAG together. *)
let observe t =
  let det, _ = Option.get (Systems.make_detector "pint") in
  let b = Predict.Builder.create () in
  let o = Replay.run ~on_strand:(Predict.Builder.observer b) t det in
  (o.Replay.races, Predict.Builder.dag b)

(* ------------------------------------------------------------- the corpus *)

let test_lucky_pinned () =
  let committed = read_file "golden/lucky_racy.trace" in
  let regenerated = Tracefile.to_bytes (Lucky.trace ()) in
  check_bool "committed lucky trace = regenerated capture" true (committed = regenerated)

let test_lucky_predict_only () =
  let t = Tracefile.of_bytes (read_file "golden/lucky_racy.trace") in
  (* invisible to every observed-order detector *)
  List.iter
    (fun name ->
      let d, _ = Option.get (Systems.make_detector name) in
      check_bool (name ^ " observes nothing") true ((Replay.run t d).Replay.races = []))
    [ "stint"; "cracer"; "pint" ];
  let observed, dag = observe t in
  let expected =
    {
      Predict.kind = Report.Write_write;
      prior = 1;
      current = 6;
      where = Interval.make 67108864 67108871;
    }
  in
  List.iter
    (fun w ->
      let pr = Predict.predict ~window:w ~observed dag in
      let want = if w < 2 then [] else [ expected ] in
      if not (Predict.equal_findings pr.Predict.predicted want) then
        Alcotest.failf "lucky w=%d: got %d prediction(s), wanted %d" w
          (List.length pr.Predict.predicted)
          (List.length want);
      check_bool (Printf.sprintf "lucky w=%d oracle agrees" w) true
        (Predict.equal_findings (Predict.oracle ~window:w ~observed dag) want))
    [ 0; 1; 2; 3; 4 ]

let check_golden_oracle path () =
  let t = Tracefile.of_bytes (read_file path) in
  let observed, dag = observe t in
  List.iter
    (fun w ->
      let pr = Predict.predict ~window:w ~observed dag in
      let orc = Predict.oracle ~window:w ~observed dag in
      if not (Predict.equal_findings pr.Predict.predicted orc) then
        Alcotest.failf "%s w=%d: predict (%d) and oracle (%d) diverge" path w
          (List.length pr.Predict.predicted)
          (List.length orc))
    [ 0; 1; 2; 3 ]

let check_golden_disjoint path () =
  let t = Tracefile.of_bytes (read_file path) in
  let observed, dag = observe t in
  let pr = Predict.predict ~window:4 ~observed dag in
  let obs_keys =
    List.concat_map
      (fun (r : Report.race) ->
        [
          (r.Report.kind, r.Report.prior, r.Report.current);
          (r.Report.kind, r.Report.current, r.Report.prior);
        ])
      observed
  in
  List.iter
    (fun f ->
      let k, p, c = Predict.finding_key f in
      if List.exists (fun (_, p', c') -> p = p' && c = c') obs_keys then
        Alcotest.failf "%s: predicted pair (%s %d->%d) is already observed" path
          (Report.kind_to_string k) p c)
    pr.Predict.predicted

let check_golden_monotone path () =
  let t = Tracefile.of_bytes (read_file path) in
  let observed, dag = observe t in
  let at w = (Predict.predict ~window:w ~observed dag).Predict.predicted in
  ignore
    (List.fold_left
       (fun (prev_w, prev) w ->
         let cur = at w in
         List.iter
           (fun f ->
             if not (List.exists (fun g -> Predict.finding_key g = Predict.finding_key f) cur)
             then
               Alcotest.failf "%s: finding at w=%d lost at w=%d" path prev_w w)
           prev;
         (w, cur))
       (0, at 0) [ 1; 2; 3; 4 ])

(* Nested-loop reference for the candidate scan: every pair at most 2w+1
   positions apart whose interval sets intersect pairwise (no merge walk)
   and whose strands are SP-parallel, in (vpos, upos) order. *)
let brute_candidates ~window (dag : Predict.dag) =
  let n = Array.length dag.Predict.nodes in
  let meets aa bb = Array.exists (fun x -> Array.exists (Interval.overlaps x) bb) aa in
  let acc = ref [] in
  for v = 0 to n - 1 do
    for u = 0 to v - 1 do
      let a = dag.Predict.nodes.(u) and b = dag.Predict.nodes.(v) in
      if
        v - u <= (2 * window) + 1
        && (meets a.Predict.writes b.Predict.writes || meets a.Predict.writes b.Predict.reads
           || meets a.Predict.reads b.Predict.writes)
        && Sp_order.parallel dag.Predict.sp a.Predict.sp b.Predict.sp
      then acc := (u, v) :: !acc
    done
  done;
  List.rev !acc

let check_golden_candidates path () =
  let t = Tracefile.of_bytes (read_file path) in
  let _, dag = observe t in
  for w = 0 to 8 do
    if Predict.candidates ~window:w dag <> brute_candidates ~window:w dag then
      Alcotest.failf "%s w=%d: candidate scan disagrees with the nested-loop enumeration" path w
  done

let diag (r : Predict.result) k = int_of_float (List.assoc k r.Predict.diagnostics)

(* (predict_candidates, predict_windows, predict_infeasible) at w = 0..8,
   as recorded before prediction was made local: the checkpointed EDF must
   try the same pins and reject the same pairs. *)
let pinned_counters =
  [
    ( "heat_racy",
      [ (4, 4, 0); (6, 9, 2); (6, 14, 0); (6, 11, 0); (6, 13, 0); (6, 16, 0); (6, 18, 0); (6, 20, 0);
        (6, 22, 0) ] );
    ( "lucky_racy",
      [ (0, 0, 0); (0, 0, 0); (1, 2, 0); (1, 2, 0); (1, 2, 0); (1, 2, 0); (1, 2, 0); (1, 2, 0);
        (1, 2, 0) ] );
    ( "mmul_racy",
      [ (0, 0, 0); (0, 0, 0); (0, 0, 0); (24, 48, 0); (24, 71, 0); (24, 93, 0); (24, 92, 0);
        (24, 81, 0); (24, 72, 0) ] );
    ( "sort_racy",
      [ (5, 5, 0); (6, 12, 0); (6, 17, 0); (6, 18, 0); (6, 18, 0); (6, 21, 0); (6, 24, 0);
        (6, 20, 0); (6, 23, 0) ] );
  ]

let check_golden_counters path () =
  let name = Filename.chop_suffix (Filename.basename path) ".trace" in
  match List.assoc_opt name pinned_counters with
  | None -> Alcotest.failf "%s: no pinned predict counters for this trace" path
  | Some want ->
      let observed, dag = observe (Tracefile.of_bytes (read_file path)) in
      List.iteri
        (fun w (c, win, inf) ->
          let r = Predict.predict ~window:w ~observed dag in
          let got =
            (diag r "predict_candidates", diag r "predict_windows", diag r "predict_infeasible")
          in
          if got <> (c, win, inf) then
            let c', win', inf' = got in
            Alcotest.failf "%s w=%d: candidates/windows/infeasible %d/%d/%d, pinned %d/%d/%d" path w
              c' win' inf' c win inf)
        want

(* Scaling guard: each pin re-runs O(w) EDF slots, never the whole trace. *)
let check_edf_slots label ~observed dag =
  List.iter
    (fun w ->
      let r = Predict.predict ~window:w ~observed dag in
      let slots = diag r "predict_edf_slots" and pins = diag r "predict_windows" in
      if slots > 4 * ((2 * w) + 1) * pins then
        Alcotest.failf "%s w=%d: %d EDF slots for %d pins" label w slots pins)
    [ 2; 4; 8 ]

let check_golden_edf_slots path () =
  let observed, dag = observe (Tracefile.of_bytes (read_file path)) in
  check_edf_slots path ~observed dag

(* A seeded simulator capture of racy sort: 19,582 strands. *)
let test_sort_edf_slots () =
  let inst = (Option.get (Registry.find "sort").Workload.racy) ~size:8192 ~base:16 in
  let d = Nodetect.make () in
  let driver, finished = Tracefile.capturing d.Detector.driver in
  let config = { Sim_exec.default_config with n_workers = 4; seed = 5 } in
  ignore (Sim_exec.run ~config ~driver inst.Workload.run);
  let observed, dag = observe (finished ()) in
  check_bool "about 20k strands" true (Array.length dag.Predict.nodes > 15_000);
  check_edf_slots "sort 8192/16 seed 5" ~observed dag

(* --------------------------------------------------- hand-built DAGs *)

(* A DAG over positions 0..n-1 from forward edges.  Adjacency feasibility
   reads only the links, so every node shares one strand and writes one
   word: the oracle's findings are then exactly the unordered pairs that
   some permissible reordering runs back to back. *)
let hand_dag n edges =
  let sp, root = Sp_order.create () in
  let succs = Array.make n [] and preds = Array.make n [] in
  List.iter
    (fun (a, b) ->
      succs.(a) <- b :: succs.(a);
      preds.(b) <- a :: preds.(b))
    edges;
  {
    Predict.sp;
    nodes =
      Array.init n (fun i ->
          {
            Predict.pos = i;
            uid = i;
            id = i;
            sp = root;
            reads = [||];
            writes = [| Interval.make 0 0 |];
            wipes = [];
            preds = List.rev preds.(i);
            succs = List.rev succs.(i);
          });
  }

(* Every DAG-unordered pair is adjacent under [Sched] (some pin, either
   order) iff the oracle reports it. *)
let sched_agrees_with_oracle ~window (dag : Predict.dag) =
  let n = Array.length dag.Predict.nodes in
  let reach = Array.make_matrix n n false in
  for i = n - 1 downto 0 do
    reach.(i).(i) <- true;
    List.iter
      (fun j -> Array.iteri (fun k r -> if r then reach.(i).(k) <- true) reach.(j))
      dag.Predict.nodes.(i).Predict.succs
  done;
  let s = Predict.Sched.make ~window dag in
  let oracle =
    List.map (fun f -> (f.Predict.prior, f.Predict.current)) (Predict.oracle ~window ~observed:[] dag)
  in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if not reach.(u).(v) then begin
        let pinned = ref false in
        for p = 0 to n - 2 do
          if Predict.Sched.pin s ~a:u ~b:v ~p || Predict.Sched.pin s ~a:v ~b:u ~p then pinned := true
        done;
        if !pinned <> List.mem (u, v) oracle then ok := false
      end
    done
  done;
  !ok

(* Runs one pin and returns its verdict and the EDF slots it re-ran. *)
let pin_slots s ~a ~b ~p =
  let before = Predict.Sched.edf_slots s in
  let ok = Predict.Sched.pin s ~a ~b ~p in
  (ok, Predict.Sched.edf_slots s - before)

(* w = 1: strand 0 is free, 1 -> 2 -> ... -> 6 is a chain whose base
   windows are [i-1, i].  Pinning 0 at slot 0 and 1 at slot 1 raises
   every chain release by one, five edges past the pin (> 2w), so EDF
   replays up to boundary 7, past the chain's last deadline. *)
let test_hand_long_fold () =
  let dag = hand_dag 7 [ (1, 2); (2, 3); (3, 4); (4, 5); (5, 6) ] in
  check_bool "oracle agrees" true (sched_agrees_with_oracle ~window:1 dag);
  let s = Predict.Sched.make ~window:1 dag in
  check_bool "pin feasible, whole chain replayed" true (pin_slots s ~a:0 ~b:1 ~p:0 = (true, 7))

(* w = 1, edge 0 -> 1: windows 0:[0,1] 1:[1,2] 2:[1,3] 3:[2,3].  The only
   pin of the pair (0, 3) puts 0 at slot 1 and 3 at slot 2; the fold
   leaves every window non-empty (1 moves to [2,2]), but nothing can run
   at slot 0 and 1 and 3 both need slot 2, so only EDF rejects it. *)
let test_hand_edf_only () =
  let dag = hand_dag 4 [ (0, 1) ] in
  check_bool "oracle agrees" true (sched_agrees_with_oracle ~window:1 dag);
  let s = Predict.Sched.make ~window:1 dag in
  check_bool "EDF rejects at slot 0" true (pin_slots s ~a:0 ~b:3 ~p:1 = (false, 1));
  check_bool "reverse order has no pin" true (pin_slots s ~a:3 ~b:0 ~p:2 = (false, 0))

(* w = 2, edge 4 -> 5: base EDF runs 0 1 2 4 3 5, pending {3,5} at
   boundary 4.  Pinning 0 at slot 2 and 1 at slot 3 (touched deadlines
   end at 3) runs 2 3 0 1 4 5: at boundary 4 it still holds {4,5}, so the
   replay must run slot 4 too before rejoining at boundary 5. *)
let test_hand_late_rejoin () =
  let dag = hand_dag 6 [ (4, 5) ] in
  check_bool "oracle agrees" true (sched_agrees_with_oracle ~window:2 dag);
  let s = Predict.Sched.make ~window:2 dag in
  check_bool "pin feasible after 5 slots" true (pin_slots s ~a:0 ~b:1 ~p:2 = (true, 5))

let gen_dag =
  let open QCheck.Gen in
  int_range 2 9 >>= fun n ->
  int_range 0 3 >>= fun window ->
  list_repeat (n * (n - 1) / 2) (int_range 0 3) >>= fun coins ->
  let pairs = List.concat (List.init n (fun a -> List.init (n - a - 1) (fun k -> (a, a + k + 1)))) in
  return (n, window, List.filteri (fun i _ -> List.nth coins i = 0) pairs)

let qcheck_sched =
  QCheck.Test.make ~name:"random DAGs: Sched = oracle adjacency" ~count:300
    (QCheck.make
       ~print:(fun (n, w, es) ->
         Printf.sprintf "n=%d w=%d edges=%s" n w
           (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b) es)))
       gen_dag)
    (fun (n, window, edges) -> sched_agrees_with_oracle ~window (hand_dag n edges))

(* --------------------------------------------- random fork-join programs *)

(* Tiny random fork-join programs over one 8-word arena: 1-2 sync blocks of
   1-2 spawned children each (<= 11 strands), children fill or bulk-read
   random subranges, at most one child frees the arena (the free-hidden
   shape the lucky trace pins).  Captured sequentially, then the analysis
   is checked against the oracle on the decoded DAG. *)

let arena_words = 8

type leaf = { off : int; len : int; write : bool }
type child = Acc of leaf | Freer
type prog = { blocks : child list list }

let run_prog p () =
  let buf = Fj.alloc_f arena_words in
  List.iter
    (fun children ->
      List.iter
        (fun ch ->
          Fj.spawn (fun () ->
              match ch with
              | Acc l ->
                  if l.write then Membuf.fill_f buf l.off l.len 1.0
                  else ignore (Membuf.read_range_f buf l.off l.len)
              | Freer -> Fj.free_f buf))
        children;
      Fj.sync ())
    p.blocks

let capture p =
  let d = Nodetect.make () in
  let driver, finished = Tracefile.capturing d.Detector.driver in
  ignore (Sim_exec.run ~config:Sim_exec.serial ~driver (run_prog p));
  finished ()

let gen_leaf =
  let open QCheck.Gen in
  int_range 0 (arena_words - 1) >>= fun off ->
  int_range 1 (arena_words - off) >>= fun len ->
  bool >>= fun write -> return { off; len; write }

let gen_prog ~blocks:max_blocks ~children:max_children =
  let open QCheck.Gen in
  int_range 1 max_blocks >>= fun nblocks ->
  list_repeat nblocks
    (int_range 1 max_children >>= fun n ->
     list_repeat n (gen_leaf >>= fun l -> return (Acc l)))
  >>= fun blocks ->
  frequency
    [
      (2, return None);
      (1, int_range 0 (nblocks - 1) >>= fun b -> int_range 0 (max_children - 1) >>= fun c -> return (Some (b, c)));
    ]
  >>= fun free_slot ->
  return
    {
      blocks =
        List.mapi
          (fun bi children ->
            List.mapi
              (fun ci ch ->
                match free_slot with Some (b, c) when b = bi && c = ci -> Freer | _ -> ch)
              children)
          blocks;
    }

let print_prog p =
  String.concat " ; "
    (List.map
       (fun children ->
         "["
         ^ String.concat ","
             (List.map
                (function
                  | Freer -> "free"
                  | Acc l -> Printf.sprintf "%s(%d,%d)" (if l.write then "W" else "R") l.off l.len)
                children)
         ^ "]")
       p.blocks)

let arb_prog = QCheck.make ~print:print_prog (gen_prog ~blocks:2 ~children:2)

(* Up to 6 blocks of 3 children: at most 43 strands. *)
let arb_big_prog = QCheck.make ~print:print_prog (gen_prog ~blocks:6 ~children:3)

let qcheck_oracle =
  QCheck.Test.make ~name:"random fj: predict = oracle" ~count:60 arb_prog (fun p ->
      let observed, dag = observe (capture p) in
      List.for_all
        (fun w ->
          Predict.equal_findings
            (Predict.predict ~window:w ~observed dag).Predict.predicted
            (Predict.oracle ~window:w ~observed dag))
        [ 0; 1; 2; 3 ])

let qcheck_monotone =
  QCheck.Test.make ~name:"random fj: monotone in window" ~count:60 arb_prog (fun p ->
      let observed, dag = observe (capture p) in
      let at w = (Predict.predict ~window:w ~observed dag).Predict.predicted in
      let rec sweep prev = function
        | [] -> true
        | w :: ws ->
            let cur = at w in
            List.for_all
              (fun f ->
                List.exists (fun g -> Predict.finding_key g = Predict.finding_key f) cur)
              prev
            && sweep cur ws
      in
      sweep (at 0) [ 1; 2; 3; 4 ])

let qcheck_oracle_big =
  QCheck.Test.make ~name:"larger random fj: predict = oracle" ~count:40 arb_big_prog (fun p ->
      let observed, dag = observe (capture p) in
      List.for_all
        (fun w ->
          Predict.equal_findings
            (Predict.predict ~window:w ~observed dag).Predict.predicted
            (Predict.oracle ~window:w ~observed dag))
        [ 0; 1; 2; 3; 4; 5 ])

(* The one replay walk, pushed or offered: a session fed a program's
   capture in random chunks replays it exactly as [Replay.run] replays the
   decoded file — the same races (witnesses included), the same strand
   count, and the same observer sequence of (position, trace uid, replay
   uid). *)
let replay_steps ?chunks bytes =
  let steps = ref [] in
  let on_strand ~sp:_ ~pos (e : Tracefile.entry) (r : Srec.t) =
    steps := (pos, e.Tracefile.uid, r.Srec.uid) :: !steps
  in
  let det, _ = Option.get (Systems.make_detector "pint") in
  let o =
    match chunks with
    | None -> Replay.run ~on_strand (Tracefile.of_bytes bytes) det
    | Some sizes ->
        let s = Replay.Session.create ~on_strand det in
        let n = String.length bytes in
        let rec go pos = function
          | [] -> go pos sizes
          | k :: ks when pos < n ->
              let len = min k (n - pos) in
              ignore (Replay.Session.feed s ~pos ~len bytes);
              go (pos + len) ks
          | _ -> ()
        in
        go 0 sizes;
        ignore (Replay.Session.eof s);
        det.Detector.drain ();
        Replay.Session.outcome s
  in
  (o.Replay.races, o.Replay.n_strands, List.rev !steps)

(* Chunk sizes, cycled over the stream (no shrinker, so sizes stay >= 1). *)
let arb_chunks =
  QCheck.make ~print:QCheck.Print.(list int) QCheck.Gen.(list_size (int_range 1 6) (int_range 1 97))

let qcheck_session =
  QCheck.Test.make ~name:"random fj: chunked session = offline run" ~count:100
    (QCheck.pair arb_big_prog arb_chunks)
    (fun (p, sizes) ->
      let bytes = Tracefile.to_bytes (capture p) in
      replay_steps ~chunks:sizes bytes = replay_steps bytes)

let () =
  let files = golden_files () in
  if files = [] then prerr_endline "test_predict: no golden traces found, nothing to check";
  Alcotest.run "pint_predict"
    [
      ( "lucky",
        [
          Alcotest.test_case "trace bytes pinned" `Quick test_lucky_pinned;
          Alcotest.test_case "only predictable" `Quick test_lucky_predict_only;
        ] );
      ( "oracle",
        List.map (fun p -> Alcotest.test_case p `Quick (check_golden_oracle p)) files );
      ( "disjoint",
        List.map (fun p -> Alcotest.test_case p `Quick (check_golden_disjoint p)) files );
      ( "monotone",
        List.map (fun p -> Alcotest.test_case p `Quick (check_golden_monotone p)) files );
      ( "candidates",
        List.map (fun p -> Alcotest.test_case p `Quick (check_golden_candidates p)) files );
      ( "counters",
        List.map (fun p -> Alcotest.test_case p `Quick (check_golden_counters p)) files );
      ( "edf slots",
        Alcotest.test_case "racy sort capture" `Quick test_sort_edf_slots
        :: List.map (fun p -> Alcotest.test_case p `Quick (check_golden_edf_slots p)) files );
      ( "hand-built",
        [
          Alcotest.test_case "fold along a long chain" `Quick test_hand_long_fold;
          Alcotest.test_case "infeasible only by EDF" `Quick test_hand_edf_only;
          Alcotest.test_case "replay past touched deadlines" `Quick test_hand_late_rejoin;
        ] );
      ( "random",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [ qcheck_oracle; qcheck_monotone; qcheck_oracle_big; qcheck_sched; qcheck_session ] );
    ]
