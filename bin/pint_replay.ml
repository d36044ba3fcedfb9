(* pint_replay — inspect, replay and differentially check traces.

   Subcommands:
     stats     print a trace's metadata and summary counts
     replay    drive one detector from a trace (no workload execution)
     diff      replay two detectors from the same trace and diff race sets
     profile   replay with pipeline tracing and export a Chrome trace

   Traces are recorded by pint_run --capture, e.g.
     pint_run -w heat -n 32 -b 8 -d none -e seq --racy --capture heat.trace
   (which exits 1: with no detector a --racy run reports no race).

   Examples:
     pint_replay stats heat.trace
     pint_replay replay heat.trace -d pint
     pint_replay diff heat.trace --left pint --right stint

   [diff] exits 1 when the detectors disagree — by Theorem 5 the three
   detectors must report the same deduplicated (earlier, later, kind) race
   set for any trace, so a non-empty divergence is a detector bug. *)

open Cmdliner

let load_trace path =
  try Tracefile.load path
  with
  | Tracefile.Error msg ->
      Printf.eprintf "%s: corrupt trace: %s\n" path msg;
      exit 2
  | Sys_error msg ->
      Printf.eprintf "cannot read trace: %s\n" msg;
      exit 2

let make_detector ?obs ?(shards = 1) name =
  match Systems.make_detector ~shards ?obs name with
  | Some ds -> ds
  | None ->
      Printf.eprintf "unknown detector %S (%s)\n" name (String.concat "|" Systems.detector_names);
      exit 2

let shards_arg ?(names = [ "shards" ]) ~doc () = Arg.(value & opt int 1 & info names ~doc)

(* -- stats --------------------------------------------------------------- *)

let trace_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc:"Trace file.")

let stats_cmd =
  let run path =
    let t = load_trace path in
    Printf.printf "trace: %s\n" path;
    Printf.printf "version: %d\n" t.Tracefile.version;
    List.iter (fun (k, v) -> Printf.printf "meta %s = %s\n" k v) t.Tracefile.meta;
    let reads, writes = Tracefile.interval_totals t in
    Printf.printf "strands: %d\n" (Tracefile.entry_count t);
    Printf.printf "trace boundaries: %d\n" (Tracefile.boundary_count t);
    Printf.printf "intervals: %d read, %d write\n" reads writes;
    Printf.printf "bytes: %d\n" (String.length (Tracefile.to_bytes t))
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print a trace's metadata and counts") Term.(const run $ trace_arg)

(* -- replay -------------------------------------------------------------- *)

let max_report_arg = Arg.(value & opt int 10 & info [ "max-report" ] ~doc:"Races to print.")

let replay_cmd =
  let run path detector shards max_report =
    let t = load_trace path in
    let det, _ = make_detector ~shards detector in
    let o =
      try Replay.run t det
      with Replay.Corrupt msg ->
        Printf.eprintf "%s: inconsistent trace: %s\n" path msg;
        exit 2
    in
    Printf.printf "replayed %d strand(s) through %s\n" o.Replay.n_strands o.Replay.detector;
    Printf.printf "races: %d distinct pair(s)\n" (List.length o.Replay.races);
    List.iteri
      (fun i r ->
        if i < max_report then Format.printf "  %a@." Report.pp_race r
        else if i = max_report then
          Printf.printf "  ... (%d more)\n" (List.length o.Replay.races - max_report))
      o.Replay.races;
    List.iter (fun (k, v) -> Printf.printf "diag %s = %g\n" k v) o.Replay.diagnostics
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Drive one detector from a trace")
    Term.(
      const run $ trace_arg
      $ Arg.(value & opt string "pint" & info [ "d"; "detector" ] ~doc:"none|stint|cracer|pint.")
      $ shards_arg ~doc:"Address-range shards for the replayed detector (pint only)." ()
      $ max_report_arg)

(* -- profile ------------------------------------------------------------- *)

let profile_cmd =
  let run path detector shards out =
    let t = load_trace path in
    (* counter clock: replay has no meaningful timeline; ticks give each
       track a monotone, deterministic time base *)
    let obs = Obs.create ~clock:(Clock.counter ()) () in
    let det, _ = make_detector ~obs ~shards detector in
    let o =
      try Replay.run ~wrap:(Obs_hooks.instrument obs) t det
      with Replay.Corrupt msg ->
        Printf.eprintf "%s: inconsistent trace: %s\n" path msg;
        exit 2
    in
    let meta = ("trace", path) :: ("detector", detector) :: t.Tracefile.meta in
    Obs.write_chrome ~meta obs ~path:out;
    Printf.printf "replayed %d strand(s) through %s; %d race(s)\n" o.Replay.n_strands
      o.Replay.detector
      (List.length o.Replay.races);
    Printf.printf "profile written to %s (%d event(s), %d dropped)\n" out (Obs.events obs)
      (Obs.dropped obs);
    List.iter (fun (k, v) -> Printf.printf "  %s = %g\n" k v) (Obs.summary obs)
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Replay a trace with pipeline tracing and export a Chrome trace")
    Term.(
      const run $ trace_arg
      $ Arg.(value & opt string "pint" & info [ "d"; "detector" ] ~doc:"none|stint|cracer|pint.")
      $ shards_arg ~doc:"Address-range shards for the profiled detector (pint only)." ()
      $ Arg.(
          value
          & opt string "profile.trace.json"
          & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Chrome trace-event JSON to write."))

(* -- predict ------------------------------------------------------------- *)

(* Exit-code contract matches pint_lint: 0 = clean, 1 = findings (observed
   or predicted races), 2 = error (corrupt trace, bad arguments, or a
   predict/oracle divergence under --oracle, which is a tool bug). *)
let predict_cmd =
  let json_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  let race_json ~origin kind ~prior ~current (where : Interval.t) =
    Printf.sprintf "{\"kind\":\"%s\",\"prior\":%d,\"current\":%d,\"lo\":%d,\"hi\":%d,\"origin\":\"%s\"}"
      (Report.kind_to_string kind) prior current where.Interval.lo where.Interval.hi
      (Report.origin_to_string origin)
  in
  let run path window detector shards oracle json max_report =
    if window < 0 then begin
      Printf.eprintf "--window must be >= 0\n";
      exit 2
    end;
    let t = load_trace path in
    let det, _ = make_detector ~shards detector in
    let builder = Predict.Builder.create () in
    let o =
      try Replay.run ~on_strand:(Predict.Builder.observer builder) t det
      with Replay.Corrupt msg ->
        Printf.eprintf "%s: inconsistent trace: %s\n" path msg;
        exit 2
    in
    let dag =
      try Predict.Builder.dag builder
      with Failure msg ->
        Printf.eprintf "%s: cannot build strand DAG: %s\n" path msg;
        exit 2
    in
    let observed = o.Replay.races in
    let r = Predict.predict ~window ~observed dag in
    if oracle then begin
      let reference =
        try Predict.oracle ~window ~observed dag
        with Invalid_argument msg ->
          Printf.eprintf "oracle unavailable: %s\n" msg;
          exit 2
      in
      if not (Predict.equal_findings r.Predict.predicted reference) then begin
        Printf.eprintf "%s: PREDICT/ORACLE DIVERGENCE at window %d\n" path window;
        Printf.eprintf "  predict reported %d finding(s), oracle %d:\n"
          (List.length r.Predict.predicted) (List.length reference);
        List.iter (fun f -> Format.eprintf "  predict: %a@." Predict.pp_finding f) r.Predict.predicted;
        List.iter (fun f -> Format.eprintf "  oracle:  %a@." Predict.pp_finding f) reference;
        exit 2
      end
    end;
    Printf.printf "replayed %d strand(s) through %s (window=%d%s)\n" o.Replay.n_strands
      o.Replay.detector window
      (if oracle then ", oracle-certified" else "");
    Printf.printf "observed: %d distinct pair(s)\n" (List.length observed);
    Printf.printf "predicted: %d pair(s)\n" (List.length r.Predict.predicted);
    List.iteri
      (fun i f ->
        if i < max_report then Format.printf "  %a@." Predict.pp_finding f
        else if i = max_report then
          Printf.printf "  ... (%d more)\n" (List.length r.Predict.predicted - max_report))
      r.Predict.predicted;
    List.iter (fun (k, v) -> Printf.printf "diag %s = %g\n" k v) r.Predict.diagnostics;
    (match json with
    | None -> ()
    | Some out ->
        let b = Buffer.create 1024 in
        Buffer.add_string b
          (Printf.sprintf "{\n  \"trace\": \"%s\",\n  \"window\": %d,\n  \"detector\": \"%s\",\n"
             (json_escape (Filename.basename path)) window (json_escape detector));
        Buffer.add_string b (Printf.sprintf "  \"strands\": %d,\n" o.Replay.n_strands);
        let add_races key races =
          Buffer.add_string b (Printf.sprintf "  \"%s\": [" key);
          List.iteri
            (fun i r ->
              if i > 0 then Buffer.add_string b ", ";
              Buffer.add_string b r)
            races;
          Buffer.add_string b "]"
        in
        add_races "observed"
          (List.map
             (fun (r : Report.race) ->
               race_json ~origin:Report.Observed r.Report.kind ~prior:r.Report.prior
                 ~current:r.Report.current r.Report.where)
             observed);
        Buffer.add_string b ",\n";
        add_races "predicted"
          (List.map
             (fun (f : Predict.finding) ->
               race_json ~origin:Report.Predicted f.Predict.kind ~prior:f.Predict.prior
                 ~current:f.Predict.current f.Predict.where)
             r.Predict.predicted);
        Buffer.add_string b ",\n  \"diagnostics\": {";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b ", ";
            Buffer.add_string b (Printf.sprintf "\"%s\": %d" (json_escape k) (int_of_float v)))
          r.Predict.diagnostics;
        Buffer.add_string b "}\n}\n";
        let oc = open_out out in
        output_string oc (Buffer.contents b);
        close_out oc;
        Printf.printf "report written to %s\n" out);
    if observed <> [] || r.Predict.predicted <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Replay a trace, then report races predictable in sync-preserving window-bounded \
          reorderings of it")
    Term.(
      const run $ trace_arg
      $ Arg.(
          value & opt int 4 & info [ "window" ] ~docv:"W" ~doc:"Reordering window: no strand moves more than W positions.")
      $ Arg.(value & opt string "pint" & info [ "d"; "detector" ] ~doc:"none|stint|cracer|pint.")
      $ shards_arg
          ~doc:"Address-range shards for the replayed detector (pint only); prediction is unaffected."
          ()
      $ Arg.(value & flag & info [ "oracle" ] ~doc:"Certify against the brute-force reordering oracle (small traces/windows; exit 2 on divergence).")
      $ Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write a JSON report.")
      $ max_report_arg)

(* -- diff ---------------------------------------------------------------- *)

let diff_cmd =
  let run path left left_shards right right_shards =
    let t = load_trace path in
    let dl, _ = make_detector ~shards:left_shards left
    and dr, _ = make_detector ~shards:right_shards right in
    let d =
      try Replay.differential t dl dr
      with Replay.Corrupt msg ->
        Printf.eprintf "%s: inconsistent trace: %s\n" path msg;
        exit 2
    in
    if Replay.no_divergence d then Printf.printf "%s: %s and %s agree\n" path left right
    else begin
      Printf.printf "%s: %s and %s DIVERGE\n" path left right;
      Format.printf "%a@." Replay.pp_divergence d;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Replay two detectors from one trace and diff their race sets")
    Term.(
      const run $ trace_arg
      $ Arg.(value & opt string "pint" & info [ "left" ] ~doc:"Left detector.")
      $ shards_arg ~names:[ "left-shards" ] ~doc:"Shards for the left detector (pint only)." ()
      $ Arg.(value & opt string "stint" & info [ "right" ] ~doc:"Right detector.")
      $ shards_arg ~names:[ "right-shards" ] ~doc:"Shards for the right detector (pint only)." ())

let () =
  let info = Cmd.info "pint_replay" ~doc:"Inspect, replay and differentially check run traces" in
  exit (Cmd.eval (Cmd.group info [ stats_cmd; replay_cmd; predict_cmd; diff_cmd; profile_cmd ]))
