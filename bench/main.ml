(* Case runner for the CI perf-regression gate.

   Usage: main.exe --json PATH [--runs N]

   Times 29 cases — one group per paper figure plus replay, shard-sweep,
   real-domain, service and prediction groups — with a plain wall-clock
   stopwatch (N runs each, default 5) and writes per-case
   median/min/max/sample-count plus key detector diagnostics (treap visits,
   fast-path hit rate, detect_span, ...) as JSON.  The committed
   BENCH_*.json files are generated this way, giving successive changes a
   perf trajectory to diff against and tools/bench_gate a baseline to
   compare fresh runs to.  The paper's figure tables themselves come from
   `experiments all`. *)

let small = 48

(* All detector construction goes through the shared factory so bench,
   pint_run and pint_replay agree on what each name means. *)
let make_det ?(shards = 1) name = Option.get (Systems.make_detector ~shards name)

(* One run of a (workload, detector) configuration; returns the detector's
   diagnostics so the JSON can carry treap visits / fast-path rates next to
   the wall-clock numbers. *)
let detector_run ?shards ~workload ~size ~base ~workers det () =
  let w = Registry.find workload in
  let inst = w.Workload.make ~size ~base in
  let d, stages = make_det ?shards det in
  let strand_cost = Systems.strand_cost det in
  let config = { Sim_exec.default_config with n_workers = workers; strand_cost; stages } in
  ignore (Sim_exec.run ~config ~driver:d.Detector.driver inst.Workload.run);
  d.Detector.drain ();
  d.Detector.diagnostics ()

(* Replay-driven timing: one shared capture of the heat workload, then each
   detector is timed on the identical recorded strand stream.  This isolates
   the detector's own cost — no executor, no workload execution, no
   schedule variance — so detector-vs-detector deltas here are pure
   access-history work. *)
let replay_trace =
  lazy
    (let w = Registry.find "heat" in
     let inst = w.Workload.make ~size:small ~base:8 in
     let d, _ = make_det "none" in
     let driver, finished = Tracefile.capturing d.Detector.driver in
     ignore (Sim_exec.run ~config:Sim_exec.serial ~driver inst.Workload.run);
     finished ())

let replay_run ?shards det () =
  let t = Lazy.force replay_trace in
  let d, _ = make_det ?shards det in
  (Replay.run t d).Replay.diagnostics

(* Predictive detection: observed detection and the strand DAG come from
   one replay pass, then the window-bounded reordering analysis runs on
   top.  The capture is the RACY heat variant — the plain one has no
   conflicting parallel pairs, so its candidate counters would be zero and
   the gate would have nothing to pin. *)
let predict_trace =
  lazy
    (let w = Registry.find "heat" in
     let inst = (Option.get w.Workload.racy) ~size:small ~base:8 in
     let d, _ = make_det "none" in
     let driver, finished = Tracefile.capturing d.Detector.driver in
     ignore (Sim_exec.run ~config:Sim_exec.serial ~driver inst.Workload.run);
     finished ())

let predict_run ~window () =
  let t = Lazy.force predict_trace in
  let d, _ = make_det "pint" in
  let b = Predict.Builder.create () in
  let o = Replay.run ~on_strand:(Predict.Builder.observer b) t d in
  let pr = Predict.predict ~window ~observed:o.Replay.races (Predict.Builder.dag b) in
  pr.Predict.diagnostics

(* One real-domain detection run: PINT sharded across micropool domains
   under Par_exec, wall clock.  Core workers are fixed at 1 so the fork-join
   side contributes identical work at every shard count; collector
   backpressure is on (real consumers drain the lanes concurrently).  The
   recorded "domains" is the host's core budget, which the gate's scaling
   check reads to decide whether this host could scale at all. *)
let par_run ~shards ~workload ~size ~base () =
  let w = Registry.find workload in
  let inst = w.Workload.make ~size ~base in
  let d, stages =
    Option.get
      (Systems.make_detector ~shards ~bp_rounds:Pint_detector.recommended_bp_rounds "pint")
  in
  let config =
    { Par_exec.n_workers = 1; seed = 1; pools = Systems.micropools stages; obs = Obs.disabled }
  in
  let r = Par_exec.run ~config ~driver:d.Detector.driver inst.Workload.run in
  d.Detector.drain ();
  ("domains", float_of_int (Domain.recommended_domain_count ()))
  :: ("domains_used", float_of_int r.Par_exec.n_domains)
  :: ("steals", float_of_int r.Par_exec.n_steals)
  :: ("steal_cas_failures", float_of_int r.Par_exec.n_steal_cas_failures)
  :: ("parks", float_of_int r.Par_exec.n_parks)
  :: d.Detector.diagnostics ()

let median samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Streaming-service soak: an in-process pint_serve daemon on a temp Unix
   socket, M concurrent client sessions streaming the golden corpus plus a
   seeded sim capture.  The wall clock is the whole soak; the payload
   diagnostics are the per-session Data-frame feed latency quantiles
   (µs, aggregated across served sessions: median of per-session p50s,
   worst per-session p99) and the admission-reject count — the
   over-subscribed case deliberately exceeds the daemon's session cap, so
   its reject counter records that surplus tenants were turned away with a
   framed error instead of degrading the admitted ones. *)
let soak_images =
  lazy
    (let golden =
       let dir = Filename.concat "test" "golden" in
       if Sys.file_exists dir && Sys.is_directory dir then
         Sys.readdir dir |> Array.to_list
         |> List.filter (fun f -> Filename.check_suffix f ".trace")
         |> List.sort compare
         |> List.map (fun f ->
                let ic = open_in_bin (Filename.concat dir f) in
                let s = really_input_string ic (in_channel_length ic) in
                close_in ic;
                s)
       else []
     in
     let sim_capture () =
       let w = Registry.find "heat" in
       let inst = w.Workload.make ~size:small ~base:8 in
       let d, _ = make_det "none" in
       let driver, finished = Tracefile.capturing d.Detector.driver in
       let config = { Sim_exec.default_config with n_workers = 4; seed = 7 } in
       ignore (Sim_exec.run ~config ~driver inst.Workload.run);
       Tracefile.to_bytes (finished ())
     in
     golden @ [ sim_capture () ])

let soak ~sessions ~max_sessions () =
  let images = Lazy.force soak_images in
  let config =
    {
      Serve_server.default_config with
      Serve_server.max_sessions;
      pool_workers = 2;
    }
  in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pint-bench-%d.sock" (Unix.getpid ()))
  in
  let server = Serve_server.create ~config (Unix.ADDR_UNIX sock) in
  let srv = Domain.spawn (fun () -> Serve_server.serve ~poll:0.005 server) in
  let addr = Serve_server.sockaddr server in
  let jobs =
    List.init sessions (fun i ->
        let bytes = List.nth images (i mod List.length images) in
        (* 2 shards per session: the count the committed baselines ran at *)
        Domain.spawn (fun () -> Serve_client.run ~chunk:4096 ~shards:2 ~addr bytes))
  in
  let p50s = ref [] and p99s = ref [] and rejects = ref 0 in
  List.iter
    (fun d ->
      match Domain.join d with
      | Error _ -> incr rejects
      | Ok r ->
          let q key = Option.map float_of_string (List.assoc_opt key r.Serve_client.stats) in
          Option.iter (fun v -> p50s := v :: !p50s) (q "obs.h.serve.feed_us.p50");
          Option.iter (fun v -> p99s := v :: !p99s) (q "obs.h.serve.feed_us.p99"))
    jobs;
  Serve_server.stop server;
  Domain.join srv;
  [
    ("sessions", float_of_int sessions);
    ("served", float_of_int (List.length !p50s));
    ("admission_rejects", float_of_int !rejects);
    ("feed_us_p50", median !p50s);
    ("feed_us_p99", List.fold_left max 0. !p99s);
  ]

(* The case list: one group per paper figure, sized to finish in seconds
   so CI can smoke it, plus the replay, shard-sweep, real-domain, service
   and prediction groups. *)
let json_cases =
  [
    ( "fig1:heat48",
      [
        ("baseline", detector_run ~workload:"heat" ~size:small ~base:8 ~workers:4 "none");
        ("stint", detector_run ~workload:"heat" ~size:small ~base:8 ~workers:1 "stint");
        ("pint", detector_run ~workload:"heat" ~size:small ~base:8 ~workers:4 "pint");
        ("cracer", detector_run ~workload:"heat" ~size:small ~base:8 ~workers:4 "cracer");
      ] );
    ( "fig2:pint-pipeline",
      [
        ("sort4096/b64", detector_run ~workload:"sort" ~size:4096 ~base:64 ~workers:4 "pint");
        ("sort4096/b256", detector_run ~workload:"sort" ~size:4096 ~base:256 ~workers:4 "pint");
      ] );
    ( "fig3:strong-scaling",
      [
        ("mmul/p1", detector_run ~workload:"mmul" ~size:small ~base:8 ~workers:1 "pint");
        ("mmul/p8", detector_run ~workload:"mmul" ~size:small ~base:8 ~workers:8 "pint");
        ("mmul/p32", detector_run ~workload:"mmul" ~size:small ~base:8 ~workers:32 "pint");
      ] );
    ( "fig4:weak-scaling",
      [
        ("heat32/p1", detector_run ~workload:"heat" ~size:32 ~base:8 ~workers:1 "pint");
        ("heat64/p4", detector_run ~workload:"heat" ~size:64 ~base:8 ~workers:4 "pint");
        ("heat128/p16", detector_run ~workload:"heat" ~size:128 ~base:8 ~workers:16 "pint");
      ] );
    ( "replay:heat48",
      [
        ("stint", replay_run "stint");
        ("pint", replay_run "pint");
        ("cracer", replay_run "cracer");
      ] );
    (* Shard sweeps: the same fig1 heat48/pint configuration at increasing
       address-range shard counts.  Wall time barely moves (the simulator
       drives every stage on one OS thread) — the payload is the
       "detect_span" diagnostic, the virtual-cycle critical path of the
       slowest treap worker, which must decrease as the access history is
       split across more {writer,lreader,rreader} triples. *)
    ( "fig1:shards",
      [
        ("heat48/s1", detector_run ~shards:1 ~workload:"heat" ~size:small ~base:8 ~workers:4 "pint");
        ("heat48/s2", detector_run ~shards:2 ~workload:"heat" ~size:small ~base:8 ~workers:4 "pint");
        ("heat48/s4", detector_run ~shards:4 ~workload:"heat" ~size:small ~base:8 ~workers:4 "pint");
        ("heat48/s8", detector_run ~shards:8 ~workload:"heat" ~size:small ~base:8 ~workers:4 "pint");
      ] );
    ( "replay:heat48:shards",
      [ ("pint/s1", replay_run ~shards:1 "pint"); ("pint/s4", replay_run ~shards:4 "pint") ] );
    (* Real-domain shard sweep: the same heat48/pint configuration under
       Par_exec, where shard k's {writer,lreader,rreader} triple runs on
       its own pinned micropool domain.  Core workers are fixed at 1 so the
       computation side is identical across cases and detection parallelism
       is the only variable — on a host with >= 4 cores the s4 wall clock
       must beat s1 (tools/bench_gate --require-scaling asserts exactly
       that; the recorded "domains" diagnostic lets it skip the assertion
       on smaller hosts, where oversubscribed domains can only tie). *)
    ( "par:heat48",
      [
        ("s1", par_run ~shards:1 ~workload:"heat" ~size:small ~base:8);
        ("s2", par_run ~shards:2 ~workload:"heat" ~size:small ~base:8);
        ("s4", par_run ~shards:4 ~workload:"heat" ~size:small ~base:8);
        ("s8", par_run ~shards:8 ~workload:"heat" ~size:small ~base:8);
      ] );
    (* Service soak: concurrent streaming tenants against one in-process
       daemon.  m4 admits everyone; m8/cap4 over-subscribes a 4-session cap
       so the admission path (framed reject, no queueing) is exercised and
       its reject count lands in the trajectory. *)
    ( "serve:soak",
      [
        ("m4", soak ~sessions:4 ~max_sessions:4);
        ("m8/cap4", soak ~sessions:8 ~max_sessions:4);
      ] );
    (* Predictive detection on the shared heat capture at a small and a
       large window.  Wall time is replay + analysis; the candidate and
       window counters are deterministic, so
       tools/bench_gate pins them exactly. *)
    ( "predict:heat48",
      [ ("w2", predict_run ~window:2); ("w8", predict_run ~window:8) ] );
  ]

(* Diagnostics worth tracking release-over-release; anything absent for a
   given detector is simply omitted from its JSON object. *)
let tracked_diags =
  [
    "writer_visits";
    "lreader_visits";
    "rreader_visits";
    "reader_visits";
    "fastpath_hits";
    "inplace_hits";
    "slowpath_hits";
    "fastpath_rate";
    "scratch_reuse";
    "coal_sort_skips";
    "coal_sorts";
    "queue_min_rescans";
    "collected";
    "writer_stalls";
    "ahq_batch";
    "intervals";
    "raw_events";
    "shards";
    "detect_span";
    "split_intervals";
    "split_subranges";
    "split_rate";
    "lane_rejects";
    "lane_peak_depth";
    "backpressure_waits";
    "domains";
    "domains_used";
    "steals";
    "steal_cas_failures";
    "parks";
    "sessions";
    "served";
    "admission_rejects";
    "feed_us_p50";
    "feed_us_p99";
    "predict_candidates";
    "predict_windows";
    "predict_edf_slots";
    "predict_pair_scans";
    "predicted";
  ]

let json_mode ~path ~runs =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": 3,\n";
  add "  \"generated_by\": \"bench/main.exe --json\",\n";
  add "  \"runs\": %d,\n" runs;
  add "  \"figures\": {\n";
  List.iteri
    (fun gi (group, cases) ->
      add "    %S: {\n" group;
      List.iteri
        (fun ci (case, run) ->
          Printf.printf "  %s / %s ...%!" group case;
          let samples = ref [] and diags = ref [] in
          for _ = 1 to runs do
            (* start every sample from a compacted heap: the detectors are
               allocation-heavy and inherited major-heap state otherwise
               makes run-to-run timings bimodal *)
            Gc.compact ();
            let t0 = Unix.gettimeofday () in
            diags := run ();
            samples := (Unix.gettimeofday () -. t0) :: !samples
          done;
          let med = median !samples in
          Printf.printf " %.3fs median\n%!" med;
          add "      %S: {\n" case;
          add "        \"median_s\": %.6f,\n" med;
          add "        \"min_s\": %.6f,\n" (List.fold_left min infinity !samples);
          add "        \"max_s\": %.6f,\n" (List.fold_left max neg_infinity !samples);
          add "        \"n\": %d,\n" (List.length !samples);
          add "        \"samples_s\": [%s],\n"
            (String.concat ", " (List.rev_map (Printf.sprintf "%.6f") !samples));
          let kept =
            List.filter (fun (k, _) -> List.mem k tracked_diags) !diags
          in
          add "        \"diagnostics\": {%s}\n"
            (String.concat ", "
               (List.map (fun (k, v) -> Printf.sprintf "%S: %.3f" k v) kept));
          add "      }%s\n" (if ci = List.length cases - 1 then "" else ",")
          )
        cases;
      add "    }%s\n" (if gi = List.length json_cases - 1 then "" else ","))
    json_cases;
  add "  }\n";
  add "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let usage () =
  prerr_endline "usage: main.exe --json PATH [--runs N]   (N > 0, default 5)";
  exit 2

let () =
  let rec parse path runs = function
    | [] -> (path, runs)
    | "--json" :: p :: rest -> parse (Some p) runs rest
    | "--runs" :: n :: rest -> (
        match int_of_string_opt n with Some n when n > 0 -> parse path n rest | _ -> usage ())
    | _ -> usage ()
  in
  match parse None 5 (List.tl (Array.to_list Sys.argv)) with
  | Some path, runs -> json_mode ~path ~runs
  | None, _ -> usage ()
