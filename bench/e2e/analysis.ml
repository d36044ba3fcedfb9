(* trace-analysis: what the CI trace-analysis job does with
   `pint_replay predict --window 4`, as repeated corpus passes:
   [Tracefile.of_bytes] -> [Replay.run] through pint with the
   [Predict.Builder] observer -> [Predict.predict].  This is the offline
   path: whole-file decode, the recursive replay walk, and the pipeline
   drained synchronously on one thread (the same treaps as live runs,
   without concurrency), plus prediction, which live runs never do.

   The baseline pass decodes the same corpus and replays it through `none`
   (the walk and the SP-order rebuild only). *)

type entry = {
  name : string;
  bytes : string;
  strands : int;
  stint : (Report.kind * int * int) list;
      (** the reference observed race set, from Stint, at Theorem-5
          (kind, prior, current) granularity *)
  expected : (Report.kind * int * int * int * int) list option;
      (** a golden trace's committed predicted findings at window 4 *)
}

let window = 4

let s_pass = Spans.name "analysis.pass"
and s_decode = Spans.name "tracefile.decode"
and s_walk = Spans.name "replay.walk"
and s_drain = Spans.name "pipeline.drain"
and s_predict = Spans.name "predict.predict"

let golden_dir = Filename.concat "test" "golden"

(* Racy simulator captures, 4 workers, seeded from the run's seed.
   Prediction is super-linear in strands (a 4k-strand sort takes ~1 s, a
   9k-strand one ~6 s), which is what bounds these sizes. *)
let shapes ~quick =
  if quick then [ ("sort", 4096, 256); ("mmul", 32, 8); ("fft", 512, 64); ("heat", 64, 8) ]
  else [ ("sort", 32768, 512); ("mmul", 128, 16); ("fft", 4096, 64); ("heat", 512, 8) ]

let capture ~seed ~racy (wl, size, base) =
  let w = Registry.find wl in
  let inst = (if racy then Option.get w.Workload.racy else w.Workload.make) ~size ~base in
  let det, _ = Option.get (Systems.make_detector "none") in
  let driver, finished = Tracefile.capturing det.Detector.driver in
  let config = { Sim_exec.default_config with n_workers = 4; seed } in
  ignore (Sim_exec.run ~config ~driver inst.Workload.run);
  Tracefile.to_bytes (finished ())

let signature races =
  List.sort_uniq compare
    (List.map (fun (r : Report.race) -> (r.Report.kind, r.Report.prior, r.Report.current)) races)

let findings (r : Predict.result) =
  List.sort compare
    (List.map
       (fun (f : Predict.finding) ->
         (f.Predict.kind, f.Predict.prior, f.Predict.current, f.Predict.where.Interval.lo,
          f.Predict.where.Interval.hi))
       r.Predict.predicted)

let entry ?expected name bytes =
  let t = Tracefile.of_bytes bytes in
  let stint, _ = Option.get (Systems.make_detector "stint") in
  let o = Replay.run t stint in
  { name; bytes; strands = Tracefile.entry_count t; stint = signature o.Replay.races; expected }

let expected_findings path =
  let j = Jsonx.parse (Results.read_file path) in
  let field k o = Option.get (Jsonx.member k o) in
  let int k o = int_of_float (Option.get (Jsonx.to_float (field k o))) in
  let kind o =
    let s = Option.get (Jsonx.to_str (field "kind" o)) in
    List.find
      (fun k -> Report.kind_to_string k = s)
      [ Report.Write_write; Report.Write_read; Report.Read_write ]
  in
  List.sort compare
    (List.map
       (fun o -> (kind o, int "prior" o, int "current" o, int "lo" o, int "hi" o))
       (Option.get (Jsonx.to_list (field "predicted" j))))

let golden () =
  Sys.readdir golden_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".trace")
  |> List.sort compare
  |> List.map (fun f ->
         let name = Filename.chop_suffix f ".trace" in
         entry
           ~expected:(expected_findings (Filename.concat golden_dir (name ^ ".predict.expected")))
           name
           (Results.read_file (Filename.concat golden_dir f)))

(* The corpus: the seeded captures plus the golden traces, with every
   reference the output checks need. *)
let corpus ~quick ~seed =
  List.mapi
    (fun i ((wl, _, _) as sh) -> entry (wl ^ "-racy") (capture ~seed:(seed + i) ~racy:true sh))
    (shapes ~quick)
  @ golden ()

type analysed = { ok : bool; diags : (string * float) list }

(* One trace, analysed.  Under tracing the pipeline is drained by the
   probes right after [on_done] (inside [pipeline.drain]), through
   same-named stage wrappers, so the detector's own drain finds every
   stage done. *)
let analyse e =
  let t = Spans.with_span s_decode (fun () -> Tracefile.of_bytes e.bytes) in
  let det, stages = Option.get (Systems.make_detector "pint") in
  let stages = List.map Probes.stage stages in
  let after_done () =
    Spans.with_span s_drain (fun () -> Pipeline.drive (Pipeline.of_stages stages))
  in
  let builder = Predict.Builder.create () in
  let o =
    Spans.with_span s_walk (fun () ->
        Replay.run ~wrap:(Probes.driver ~after_done)
          ~on_strand:(Probes.observer (Predict.Builder.observer builder))
          t det)
  in
  let r =
    Spans.with_span s_predict (fun () ->
        Predict.predict ~window ~observed:o.Replay.races (Predict.Builder.dag builder))
  in
  let ok =
    signature o.Replay.races = e.stint
    && o.Replay.n_strands = e.strands
    && match e.expected with None -> true | Some x -> findings r = x
  in
  { ok; diags = o.Replay.diagnostics @ r.Predict.diagnostics }

let walk e =
  let det, _ = Option.get (Systems.make_detector "none") in
  (Replay.run (Tracefile.of_bytes e.bytes) det).Replay.n_strands = e.strands

let run ~quick ~seed ~seconds ~traced =
  let attempted = ref 0 and failed = ref 0 in
  let built = ref [] in
  let setups =
    List.init 3 (fun _ ->
        let kernel = Calib.measure () in
        let t0 = Spans.now () in
        built := corpus ~quick ~seed;
        Calib.scaled ~kernel (Spans.now () - t0))
  in
  let corpus = !built in
  (* one pass: every trace, timed as a whole; also its peak RSS *)
  let pass f =
    Gc.compact ();
    Results.reset_peak_rss ();
    let t0 = Spans.now () in
    let rs = Spans.with_span s_pass (fun () -> List.map f corpus) in
    let wall = Spans.now () - t0 in
    incr attempted;
    (wall, rs, Results.peak_rss_mb ())
  in
  let full () =
    let wall, rs, rss = pass analyse in
    if not (List.for_all (fun a -> a.ok) rs) then incr failed;
    (wall, List.concat_map (fun a -> a.diags) rs, rss)
  in
  let base () =
    let wall, rs, _ = pass walk in
    if not (List.for_all Fun.id rs) then incr failed;
    wall
  in
  let deadline = Spans.now () + int_of_float (seconds *. 1e9) in
  let note =
    Printf.sprintf "trace-analysis: %d traces (%s), %d strands per pass, window %d"
      (List.length corpus)
      (String.concat " " (List.map (fun e -> e.name) corpus))
      (List.fold_left (fun acc e -> acc + e.strands) 0 corpus)
      window
  in
  if not traced then begin
    let pairs = ref [] and i = ref 0 in
    while !i = 0 || Spans.now () < deadline do
      let kernel = Calib.measure () in
      let (f, _, rss), b =
        if !i mod 2 = 0 then
          let f = full () in
          (f, base ())
        else
          let b = base () in
          (full (), b)
      in
      pairs := (kernel, f, b, rss) :: !pairs;
      incr i
    done;
    let pairs = List.rev !pairs in
    let detect = List.map (fun (kernel, f, _, _) -> Calib.scaled ~kernel f) pairs
    and base = List.map (fun (kernel, _, b, _) -> Calib.scaled ~kernel b) pairs
    and ratios = List.map (fun (_, f, b, _) -> float_of_int f /. float_of_int b) pairs
    and rss = List.map (fun (_, _, _, r) -> r) pairs in
    {
      Results.attempted = !attempted;
      failed = !failed;
      values =
        [
          ("setup_s", Results.median setups);
          ("detect_s", Results.median detect);
          ("base_s", Results.median base);
          ("overhead_x", Results.median ratios);
          ("rss_peak_mb", Results.rss_of_peaks rss);
        ];
      samples =
        [
          ("setup_s", setups);
          ("detect_s", detect);
          ("base_s", base);
          ("overhead_x", ratios);
          ("rss_peak_mb", rss);
          ("kernel_s", List.map (fun (k, _, _, _) -> Results.secs k) pairs);
          ("detect_wall_s", List.map (fun (_, f, _, _) -> Results.secs f) pairs);
          ("base_wall_s", List.map (fun (_, _, b, _) -> Results.secs b) pairs);
        ];
      notes =
        [
          note;
          Printf.sprintf "%d pairs of analysis and decode+walk passes" (List.length detect);
          Results.describe "analysis" detect;
          Results.describe "decode+walk" base;
        ];
    }
  end
  else begin
    let plain = ref [] and traced_runs = ref [] and i = ref 0 in
    while !i < 2 || Spans.now () < deadline do
      if !i mod 2 = 0 then begin
        let wall, _, _ = full () in
        plain := wall :: !plain
      end
      else begin
        Spans.enable ();
        Spans.set_run !i;
        let wall, diags, _ = full () in
        traced_runs := (wall, diags) :: !traced_runs;
        Spans.disable ()
      end;
      incr i
    done;
    let ops = float_of_int (List.length !traced_runs) in
    let walls = List.map fst !traced_runs in
    let median_wall l = Results.median (List.map float_of_int l) in
    let layers, lines =
      (* one domain, for the whole pass *)
      Trace_report.layers ~ops ~phases:[ "analysis.pass" ]
        ~domain_ns:(List.fold_left ( + ) 0 walls)
        ~overhead:(median_wall walls /. median_wall !plain)
    in
    let diags = List.concat_map snd !traced_runs in
    let sum k =
      List.fold_left (fun acc (k', v) -> if k = k' then acc +. v else acc) 0. diags /. ops
    in
    {
      Results.attempted = !attempted;
      failed = !failed;
      values =
        layers
        @ Trace_report.stage_counts ~ops diags
        @ [
            ("detect.lane_rejects", sum "lane_rejects");
            ("detect.backpressure_waits", sum "backpressure_waits");
            ("detect.detect_span", sum "detect_span");
            ("predict.candidates", sum "predict_candidates");
            ("predict.windows", sum "predict_windows");
            ("predict.pair_scans", sum "predict_pair_scans");
            ("predict.treap_visits", sum "predict_treap_visits");
          ];
      samples =
        [
          ("traced_s", List.rev_map (fun (w, _) -> Results.secs w) !traced_runs);
          ("untraced_s", List.rev_map Results.secs !plain);
        ];
      notes = note :: lines;
    }
  end
