(* Benchmark executable.

   Three parts:
   1. Regenerates every evaluation table of the paper (Figures 1-4) from the
      virtual-time harness — these are the rows EXPERIMENTS.md quotes.
   2. Bechamel wall-clock microbenchmarks of the real data structures and
      detectors (one Test.make group per figure plus the substrate ops), so
      the actual OCaml implementation cost of each component is measured,
      not simulated.
   3. A machine-readable mode (`--json PATH`, optionally `--runs N`) that
      times one representative configuration per figure with a plain
      wall-clock stopwatch and writes per-case median/min/max/sample-count
      plus key detector diagnostics (treap visits, fast-path hit rate) as
      JSON.  The committed BENCH_*.json files are generated this way,
      giving successive PRs a perf trajectory to diff against and
      tools/bench_gate a baseline to compare fresh runs to.  `--profile
      PATH` additionally runs one profiled heat48/pint simulation, writes
      its Chrome trace to PATH and merges the "obs.*" aggregates into the
      JSON. *)

open Bechamel
open Toolkit

let small = 48 (* small workload size so each bechamel sample is a full run *)

(* All detector construction goes through the shared factory so bench,
   pint_run and pint_replay agree on what each name means. *)
let make_det ?(shards = 1) name = Option.get (Systems.make_detector ~shards name)

let run_detector_once name workers detector () =
  let w = Registry.find name in
  let inst = w.Workload.make ~size:small ~base:8 in
  let d, stages = make_det detector in
  match detector with
  | "stint" -> ignore (Seq_exec.run ~driver:d.Detector.driver inst.Workload.run)
  | _ ->
      let config = { Sim_exec.default_config with n_workers = workers; stages } in
      ignore (Sim_exec.run ~config ~driver:d.Detector.driver inst.Workload.run)

(* Figure 1 group: full detector runs on a small heat instance. *)
let fig1_tests =
  Test.make_grouped ~name:"fig1:heat48"
    [
      Test.make ~name:"baseline" (Staged.stage (run_detector_once "heat" 4 "none"));
      Test.make ~name:"stint" (Staged.stage (run_detector_once "heat" 4 "stint"));
      Test.make ~name:"pint" (Staged.stage (run_detector_once "heat" 4 "pint"));
      Test.make ~name:"cracer" (Staged.stage (run_detector_once "heat" 4 "cracer"));
    ]

(* Figure 2 group: the PINT pipeline at two base-case granularities (the
   strand/interval density is what the work breakdown depends on). *)
let fig2_tests =
  let go base () =
    let w = Registry.find "sort" in
    let inst = w.Workload.make ~size:4096 ~base in
    let d, stages = make_det "pint" in
    let config = { Sim_exec.default_config with n_workers = 4; stages } in
    ignore (Sim_exec.run ~config ~driver:d.Detector.driver inst.Workload.run)
  in
  Test.make_grouped ~name:"fig2:pint-pipeline"
    [
      Test.make ~name:"sort4096/b64" (Staged.stage (go 64));
      Test.make ~name:"sort4096/b256" (Staged.stage (go 256));
    ]

(* Figure 3 group: same computation at increasing simulated worker counts. *)
let fig3_tests =
  Test.make_grouped ~name:"fig3:strong-scaling"
    [
      Test.make ~name:"mmul/p1" (Staged.stage (run_detector_once "mmul" 1 "pint"));
      Test.make ~name:"mmul/p8" (Staged.stage (run_detector_once "mmul" 8 "pint"));
      Test.make ~name:"mmul/p32" (Staged.stage (run_detector_once "mmul" 32 "pint"));
    ]

(* Figure 4 group: weak-scaling step (size grows with workers). *)
let fig4_tests =
  let go size p () =
    let w = Registry.find "heat" in
    let inst = w.Workload.make ~size ~base:8 in
    let d, stages = make_det "pint" in
    let config = { Sim_exec.default_config with n_workers = p; stages } in
    ignore (Sim_exec.run ~config ~driver:d.Detector.driver inst.Workload.run)
  in
  Test.make_grouped ~name:"fig4:weak-scaling"
    [
      Test.make ~name:"heat32/p1" (Staged.stage (go 32 1));
      Test.make ~name:"heat64/p4" (Staged.stage (go 64 4));
      Test.make ~name:"heat128/p16" (Staged.stage (go 128 16));
    ]

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
     ignore (Seq_exec.run ~driver inst.Workload.run);
     finished ())

let replay_run ?shards det () =
  let t = Lazy.force replay_trace in
  let d, _ = make_det ?shards det in
  (Replay.run t d).Replay.diagnostics

let replay_tests =
  let go det () = ignore (replay_run det ()) in
  Test.make_grouped ~name:"replay:heat48"
    [
      Test.make ~name:"stint" (Staged.stage (go "stint"));
      Test.make ~name:"pint" (Staged.stage (go "pint"));
      Test.make ~name:"cracer" (Staged.stage (go "cracer"));
    ]

(* Predictive detection: observed detection and the strand DAG come from
   one replay pass, then the window-bounded reordering analysis runs on
   top.  The capture is the RACY heat variant — the plain one has no
   conflicting parallel pairs, so its candidate counters would be zero and
   the gate would have nothing to pin.  Timed end to end (replay +
   predict); the deterministic candidate/window counters are the gated
   payload. *)
let predict_trace =
  lazy
    (let w = Registry.find "heat" in
     let inst = (Option.get w.Workload.racy) ~size:small ~base:8 in
     let d, _ = make_det "none" in
     let driver, finished = Tracefile.capturing d.Detector.driver in
     ignore (Seq_exec.run ~driver inst.Workload.run);
     finished ())

let predict_run ~window () =
  let t = Lazy.force predict_trace in
  let d, _ = make_det "pint" in
  let b = Predict.Builder.create () in
  let o = Replay.run ~on_strand:(Predict.Builder.observer b) t d in
  let pr = Predict.predict ~window ~observed:o.Replay.races (Predict.Builder.dag b) in
  pr.Predict.diagnostics

let predict_tests =
  let go window () = ignore (predict_run ~window ()) in
  Test.make_grouped ~name:"predict:heat48"
    [
      Test.make ~name:"w2" (Staged.stage (go 2));
      Test.make ~name:"w8" (Staged.stage (go 8));
    ]

(* Substrate microbenchmarks: the individual data structures. *)
let substrate_tests =
  let treap_insert () =
    let t = Itreap.create ~seed:1 ~owner_eq:Int.equal () in
    for i = 0 to 999 do
      Itreap.insert_replace t (Interval.make (i * 7 mod 4096) ((i * 7 mod 4096) + 3)) i
    done
  in
  let treap_query () =
    let t = Itreap.create ~seed:1 ~owner_eq:Int.equal () in
    for i = 0 to 255 do
      Itreap.insert_replace t (Interval.make (i * 16) ((i * 16) + 7)) i
    done;
    let hits = ref 0 in
    for i = 0 to 999 do
      Itreap.query t (Interval.make (i mod 4096) ((i mod 4096) + 31)) ~f:(fun _ _ -> incr hits)
    done
  in
  let om_insert () =
    let om = Om.create () in
    let r = ref (Om.base om) in
    for _ = 1 to 1000 do
      r := Om.insert_after om !r
    done
  in
  let sp_query () =
    let sp, root = Sp_order.create () in
    let a, b, _ = Sp_order.spawn sp ~sync_pre:None root in
    let sink = ref false in
    for _ = 1 to 1000 do
      sink := Sp_order.parallel sp a b
    done
  in
  let coalescer () =
    let c = Coalescer.create () in
    for i = 0 to 999 do
      Coalescer.add_read c ~addr:(i * 2) ~len:1
    done;
    ignore (Coalescer.finish c)
  in
  let trace_pipe () =
    let _, root = Sp_order.create () in
    let tr = Trace.create ~id:0 ~owner:0 in
    for i = 0 to 999 do
      Trace.push tr (Srec.make ~uid:i root)
    done;
    for _ = 0 to 999 do
      ignore (Trace.peek tr);
      Trace.pop tr
    done
  in
  let ahq_pipe () =
    let _, root = Sp_order.create () in
    let q = Ahq.create ~capacity:2048 () in
    for i = 0 to 999 do
      ignore (Ahq.try_enqueue q (Srec.make ~uid:i root))
    done;
    for _ = 0 to 999 do
      ignore (Ahq.peek q Ahq.l);
      Ahq.advance q Ahq.l;
      ignore (Ahq.peek q Ahq.r);
      Ahq.advance q Ahq.r
    done
  in
  let ahq_pipe_batched () =
    (* same 1k records, consumed through the batched interface: one cursor
       update and one recycling scan per 32 records instead of per record *)
    let _, root = Sp_order.create () in
    let q = Ahq.create ~capacity:2048 () in
    for i = 0 to 999 do
      ignore (Ahq.try_enqueue q (Srec.make ~uid:i root))
    done;
    let drain side =
      let rec go () =
        let b = Ahq.peek_batch q side in
        if Array.length b > 0 then begin
          Ahq.advance_n q side (Array.length b);
          go ()
        end
      in
      go ()
    in
    drain Ahq.l;
    drain Ahq.r
  in
  Test.make_grouped ~name:"substrate"
    [
      Test.make ~name:"treap-1k-inserts" (Staged.stage treap_insert);
      Test.make ~name:"treap-1k-queries" (Staged.stage treap_query);
      Test.make ~name:"om-1k-inserts" (Staged.stage om_insert);
      Test.make ~name:"sporder-1k-queries" (Staged.stage sp_query);
      Test.make ~name:"coalescer-1k" (Staged.stage coalescer);
      Test.make ~name:"trace-1k-pipe" (Staged.stage trace_pipe);
      Test.make ~name:"ahq-1k-pipe" (Staged.stage ahq_pipe);
      Test.make ~name:"ahq-1k-pipe-batch32" (Staged.stage ahq_pipe_batched);
    ]

(* Minimal reporting: name + ns/run from the OLS estimate. *)
let report tests =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.4) () in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) ols [] in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ est ] -> Printf.printf "  %-40s %14.0f ns/run\n%!" name est
      | _ -> Printf.printf "  %-40s (no estimate)\n%!" name)
    (List.sort compare rows)

(* Per-stage pipeline diagnostics from one representative PINT run, so
   backpressure (writer stalls), idle spinning and the achieved AHQ batch
   size can be attributed stage by stage. *)
let print_stage_diagnostics () =
  let w = Registry.find "heat" in
  let inst = w.Workload.make ~size:small ~base:8 in
  let d, stages = make_det "pint" in
  let config = { Sim_exec.default_config with n_workers = 4; stages } in
  ignore (Sim_exec.run ~config ~driver:d.Detector.driver inst.Workload.run);
  d.Detector.drain ();
  print_endline "=== PINT per-stage pipeline diagnostics (heat48, 4 workers) ===";
  List.iter
    (fun (k, v) ->
      if
        String.length k > 6 && String.sub k 0 6 = "stage."
        || k = "writer_stalls" || k = "ahq_batch"
      then Printf.printf "  %-28s %12.1f\n" k v)
    (d.Detector.diagnostics ())

let default_main () =
  print_endline "=== PINT evaluation tables (virtual-time harness) ===";
  print_newline ();
  let _, f1 = Figures.fig1 () in
  print_string f1;
  print_newline ();
  let _, f2 = Figures.fig2 () in
  print_string f2;
  print_newline ();
  let _, f3 = Figures.fig3 () in
  print_string f3;
  print_newline ();
  let _, f4 = Figures.fig4 () in
  print_string f4;
  print_newline ();
  print_stage_diagnostics ();
  print_newline ();
  print_endline "=== Bechamel wall-clock benchmarks (real implementation) ===";
  List.iter report
    [ fig1_tests; fig2_tests; fig3_tests; fig4_tests; replay_tests; predict_tests; substrate_tests ]

(* ------------------------------------------------- machine-readable mode *)

(* One run of a (workload, detector) configuration; returns the detector's
   diagnostics so the JSON can carry treap visits / fast-path rates next to
   the wall-clock numbers. *)
let detector_run ?shards ~workload ~size ~base ~workers det () =
  let w = Registry.find workload in
  let inst = w.Workload.make ~size ~base in
  let d, stages = make_det ?shards det in
  (match det with
  | "stint" -> ignore (Seq_exec.run ~driver:d.Detector.driver inst.Workload.run)
  | _ ->
      let config = { Sim_exec.default_config with n_workers = workers; stages } in
      ignore (Sim_exec.run ~config ~driver:d.Detector.driver inst.Workload.run));
  d.Detector.drain ();
  d.Detector.diagnostics ()

(* Host core budget for the real-domain cases: --domains overrides the
   machine's recommended count (CI pins it so the gate's scaling check has
   a trustworthy "did this host actually have 4 cores" signal). *)
let domains_override = ref None

let host_domains () =
  match !domains_override with Some d -> d | None -> Domain.recommended_domain_count ()

(* One real-domain detection run: PINT sharded across micropool domains
   under Par_exec, wall clock.  Core workers are fixed at 1 so the fork-join
   side contributes identical work at every shard count; collector
   backpressure is on (real consumers drain the lanes concurrently). *)
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
  ("domains", float_of_int (host_domains ()))
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
      shards = 2;
      bp_rounds = Pint_detector.recommended_bp_rounds;
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
        Domain.spawn (fun () -> Serve_client.run ~chunk:4096 ~addr bytes))
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

(* The representative case list: one group per paper figure, mirroring the
   bechamel groups above but sized to finish in seconds so CI can smoke it. *)
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

(* One profiled representative run (fig1's heat48/pint under the simulator,
   virtual-time clock): writes the Chrome trace next to the bench JSON and
   returns the aggregate "obs.*" metrics for the JSON's "obs" object. *)
let profiled_run ~path () =
  let w = Registry.find "heat" in
  let inst = w.Workload.make ~size:small ~base:8 in
  let obs = Obs.create ~clock:(Clock.manual ()) () in
  let d, stages = Option.get (Systems.make_detector ~obs "pint") in
  let driver = Obs_hooks.instrument obs d.Detector.driver in
  let config =
    { Sim_exec.default_config with n_workers = 4; stages; obs_clock = Obs.clock obs }
  in
  ignore (Sim_exec.run ~config ~driver inst.Workload.run);
  d.Detector.drain ();
  Obs.write_chrome ~meta:[ ("bench", "fig1:heat48/pint"); ("exec", "sim") ] obs ~path;
  Printf.printf "  profiled heat48/pint -> %s\n%!" path;
  Obs.summary obs

let json_mode ~path ~runs ~profile =
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
  (match profile with
  | None -> add "  }\n"
  | Some ppath ->
      add "  },\n";
      let s = profiled_run ~path:ppath () in
      add "  \"obs\": {%s}\n"
        (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %.3f" k v) s)));
  add "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let () =
  let argv = Sys.argv in
  let n = Array.length argv in
  let json_path = ref None and runs = ref 5 and profile = ref None in
  let i = ref 1 in
  while !i < n do
    (match argv.(!i) with
    | "--json" ->
        if !i + 1 < n && String.length argv.(!i + 1) > 0 && argv.(!i + 1).[0] <> '-' then begin
          incr i;
          json_path := Some argv.(!i)
        end
        else json_path := Some "BENCH_10.json"
    | "--runs" when !i + 1 < n ->
        incr i;
        runs := int_of_string argv.(!i)
    | "--profile" when !i + 1 < n ->
        incr i;
        profile := Some argv.(!i)
    | "--domains" when !i + 1 < n ->
        incr i;
        domains_override := Some (int_of_string argv.(!i))
    | a ->
        Printf.eprintf
          "bench: unknown argument %s (supported: --json [PATH] --runs N --profile PATH --domains \
           N)\n"
          a;
        exit 2);
    incr i
  done;
  match !json_path with
  | Some path -> json_mode ~path ~runs:!runs ~profile:!profile
  | None -> default_main ()
